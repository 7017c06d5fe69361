//! Minimal JSON string rendering. This crate sits below the testkit (which
//! has the full report builder), so it carries the one primitive it needs:
//! correct string escaping per RFC 8259. The testkit's builder escapes its
//! strings through it too.

/// Appends `text` to `out` as a quoted JSON string, escaping quotes,
/// backslashes, and control characters.
pub fn write_json_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(s: &str) -> String {
        let mut out = String::new();
        write_json_string(&mut out, s);
        out
    }

    #[test]
    fn plain_strings_are_quoted() {
        assert_eq!(render("supervisor.redeploy"), "\"supervisor.redeploy\"");
    }

    #[test]
    fn specials_are_escaped() {
        assert_eq!(render("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(render("line\nfeed\ttab"), "\"line\\nfeed\\ttab\"");
        assert_eq!(render("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn unicode_passes_through() {
        assert_eq!(render("café"), "\"café\"");
    }
}
