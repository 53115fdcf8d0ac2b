//! The two JSON primitives the emitters share: string quoting and a
//! number form that is always valid JSON.

/// `s` as a JSON string literal, quotes included.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` with all its digits; non-finite values (which JSON cannot carry)
/// become `null` so a broken measurement is visible instead of a parse error.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// Checks that brackets and braces outside strings balance and every
    /// string closes — enough to catch a broken hand-written emitter.
    pub fn balanced(s: &str) -> bool {
        let mut stack = Vec::new();
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            match c {
                '"' => loop {
                    match chars.next() {
                        Some('\\') => {
                            chars.next();
                        }
                        Some('"') => break,
                        Some(c) if (c as u32) < 0x20 => return false,
                        Some(_) => {}
                        None => return false,
                    }
                },
                '{' | '[' => stack.push(c),
                '}' if stack.pop() != Some('{') => return false,
                ']' if stack.pop() != Some('[') => return false,
                _ => {}
            }
        }
        stack.is_empty()
    }

    #[test]
    fn quote_escapes_what_json_requires() {
        assert_eq!(
            quote("a\"b\\c\nd\te\u{1}"),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
        assert!(balanced(&format!("{{\"k\": {}}}", quote("}]\"{["))));
    }

    #[test]
    fn number_is_always_valid_json() {
        assert_eq!(number(1.25), "1.25");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }
}
