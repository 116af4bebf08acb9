//! Just enough JSON for the benchmark: reading a child run's result line,
//! the checked-in expected values and `BENCHMARK.json`.

use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { s: text, i: 0 };
    let v = p.value()?;
    p.ws();
    if p.i == p.s.len() {
        Ok(v)
    } else {
        Err(format!("trailing bytes at offset {}", p.i))
    }
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn b(&self, i: usize) -> Option<u8> {
        self.s.as_bytes().get(i).copied()
    }

    fn ws(&mut self) {
        while self.b(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.b(self.i) == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.b(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.b(self.i) == Some(b'}') {
                    self.i += 1;
                    return Ok(Value::Obj(m));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    m.insert(k, self.value()?);
                    self.ws();
                    match self.b(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Value::Obj(m));
                        }
                        _ => return Err(format!("bad object at offset {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.b(self.i) == Some(b']') {
                    self.i += 1;
                    return Ok(Value::Arr(v));
                }
                loop {
                    v.push(self.value()?);
                    self.ws();
                    match self.b(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Value::Arr(v));
                        }
                        _ => return Err(format!("bad array at offset {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.word("true", Value::Bool(true)),
            Some(b'f') => self.word("false", Value::Bool(false)),
            Some(b'n') => self.word("null", Value::Null),
            Some(_) => {
                let start = self.i;
                while self
                    .b(self.i)
                    .is_some_and(|c| b"+-.eE0123456789".contains(&c))
                {
                    self.i += 1;
                }
                self.s[start..self.i]
                    .parse()
                    .ok()
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at offset {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn word(&mut self, w: &str, v: Value) -> Result<Value, String> {
        if self.s[self.i..].starts_with(w) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let c = self.s[self.i..]
                .chars()
                .next()
                .ok_or("unterminated string")?;
            self.i += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = self.b(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let code = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            out.push(code);
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_result_line() {
        let line = format!(
            "{{\"correct\": true, \"n\": [1, -2.5e3], \"s\": {}, \"m\": {{\"x\": {{\"value\": {}}}}}}}",
            quote("a\"b\\c"),
            0.1 + 0.2
        );
        let v = parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("s").and_then(Value::str), Some("a\"b\\c"));
        let x = v
            .get("m")
            .and_then(|m| m.get("x"))
            .and_then(|x| x.get("value"));
        assert_eq!(x.and_then(Value::num), Some(0.1 + 0.2));
        assert!(parse("{\"a\": 1} x").is_err());
    }
}
