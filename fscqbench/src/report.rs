//! What a measuring child process hands back to its parent: named metric
//! values, how many items it checked, and every failure by name. The
//! child prints it as plain lines on stdout; the parent parses them.

use std::collections::BTreeMap;

#[derive(Debug, Default, Clone, PartialEq)]
pub struct Report {
    pub metrics: BTreeMap<String, f64>,
    /// Items checked: theorem evaluations, or replayed attempts.
    pub attempted: u64,
    /// Items that failed a check.
    pub failed: u64,
    /// One line per failure, naming the theorem or input.
    pub failures: Vec<String>,
    /// Digest of the outcome records, when the child evaluated theorems.
    pub digest: Option<u64>,
    /// The child's pinned-reference line, when it evaluated theorems.
    pub pin: Option<String>,
}

impl Report {
    /// A report for a child that could not run at all.
    pub fn fatal(msg: impl Into<String>) -> Report {
        let mut r = Report::default();
        r.fail(1, msg);
        r
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Records `items` failed items under one message.
    pub fn fail(&mut self, items: u64, msg: impl Into<String>) {
        self.failed += items;
        self.failures.push(msg.into().replace(['\n', '\r'], " "));
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.metrics {
            out.push_str(&format!("metric {k} {v:?}\n"));
        }
        out.push_str(&format!(
            "attempted {}\nfailed {}\n",
            self.attempted, self.failed
        ));
        if let Some(d) = self.digest {
            out.push_str(&format!("digest {d:016x}\n"));
        }
        if let Some(p) = &self.pin {
            out.push_str(&format!("pin {p}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("fail {f}\n"));
        }
        out
    }

    /// Parses [`Report::render`]'s output; lines it does not know are
    /// ignored, and a report without an `attempted` line is an error.
    pub fn parse(text: &str) -> Result<Report, String> {
        let mut r = Report::default();
        let mut saw_attempted = false;
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "metric" => {
                    let (name, value) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("bad metric line `{line}`"))?;
                    let value = value.parse().map_err(|e| format!("metric {name}: {e}"))?;
                    r.metrics.insert(name.to_string(), value);
                }
                "attempted" => {
                    r.attempted = rest.parse().map_err(|e| format!("attempted: {e}"))?;
                    saw_attempted = true;
                }
                "failed" => r.failed = rest.parse().map_err(|e| format!("failed: {e}"))?,
                "digest" => {
                    r.digest =
                        Some(u64::from_str_radix(rest, 16).map_err(|e| format!("digest: {e}"))?)
                }
                "pin" => r.pin = Some(rest.to_string()),
                "fail" => r.failures.push(rest.to_string()),
                _ => {}
            }
        }
        if !saw_attempted {
            return Err("child printed no report".to_string());
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips() {
        let mut r = Report::default();
        r.set("wall_s", 2.345678901234567);
        r.set("stm.adds", 7.0);
        r.attempted = 9;
        r.fail(2, "theorem foo:\nbroken");
        r.digest = Some(0xdead_beef);
        r.pin = Some("w\t1".into());
        let back = Report::parse(&r.render()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.metrics["stm.adds"], 7.0);
        assert_eq!(back.failures, vec!["theorem foo: broken".to_string()]);
        assert!(Report::parse("metric x 1\n").is_err());
    }
}
