//! The correctness gate: outcome records, their digests, the pinned
//! reference they must match, and kernel replay of every proved script.

use fscq_corpus::Corpus;
use minicoq::replay::replay_script;
use proof_trace::ledger::fnv1a;

/// What one theorem evaluation produced, as far as correctness goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Index of the set-up corpus the theorem belongs to.
    pub corpus: usize,
    /// The theorem's index in that corpus.
    pub index: usize,
    /// Label of the cell that evaluated it.
    pub cell: String,
    pub theorem: String,
    /// `proved`, `stuck` or `fuelout`.
    pub outcome: String,
    pub script: Option<String>,
    pub queries: u32,
}

impl Record {
    /// Hash of the fields the reference pins: theorem, outcome, script and
    /// query count.
    pub fn hash(&self) -> u64 {
        let text = format!(
            "{}\0{}\0{}\0{}",
            self.theorem,
            self.outcome,
            self.script.as_deref().unwrap_or(""),
            self.queries
        );
        fnv1a(text.as_bytes())
    }

    /// The record's entry in a pinned list: the low 32 bits of its hash.
    pub fn short(&self) -> u32 {
        self.hash() as u32
    }
}

/// Digest of a whole run's records, in evaluation order.
pub fn digest(records: &[Record]) -> u64 {
    let bytes: Vec<u8> = records
        .iter()
        .flat_map(|r| r.hash().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

/// The pinned reference for one workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pin {
    pub workload: String,
    /// Generated-corpus fingerprint, `-` when the workload has none.
    pub fingerprint: String,
    /// Ranking-model content hash, `-` when the workload has none.
    pub model_hash: String,
    pub proved: usize,
    pub digest: u64,
    /// [`Record::short`] of every evaluation, in order.
    pub records: Vec<u32>,
}

impl Pin {
    pub fn of(
        workload: &str,
        fingerprint: Option<&str>,
        model_hash: Option<u64>,
        records: &[Record],
    ) -> Pin {
        Pin {
            workload: workload.to_string(),
            fingerprint: fingerprint.unwrap_or("-").to_string(),
            model_hash: model_hash.map_or("-".to_string(), |h| format!("{h:016x}")),
            proved: records.iter().filter(|r| r.outcome == "proved").count(),
            digest: digest(records),
            records: records.iter().map(Record::short).collect(),
        }
    }

    /// One tab-separated line.
    pub fn render(&self) -> String {
        let records: Vec<String> = self.records.iter().map(|h| format!("{h:08x}")).collect();
        format!(
            "{}\t{}\t{}\t{}\t{}\t{:016x}\t{}",
            self.workload,
            self.fingerprint,
            self.model_hash,
            self.records.len(),
            self.proved,
            self.digest,
            records.join(" ")
        )
    }

    pub fn parse(line: &str) -> Result<Pin, String> {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 7 {
            return Err(format!("reference line has {} fields, want 7", f.len()));
        }
        let num = |s: &str| s.parse::<u64>().map_err(|e| format!("`{s}`: {e}"));
        let hex32 = |s: &str| u32::from_str_radix(s, 16).map_err(|e| format!("`{s}`: {e}"));
        let records = f[6]
            .split_whitespace()
            .map(hex32)
            .collect::<Result<Vec<_>, _>>()?;
        if records.len() as u64 != num(f[3])? {
            return Err(format!("{}: record count mismatch", f[0]));
        }
        Ok(Pin {
            workload: f[0].to_string(),
            fingerprint: f[1].to_string(),
            model_hash: f[2].to_string(),
            proved: num(f[4])? as usize,
            digest: u64::from_str_radix(f[5], 16).map_err(|e| format!("`{}`: {e}", f[5]))?,
            records,
        })
    }
}

/// The pins shipped with the benchmark, taken at the commit that
/// introduced it (`fscqbench pin` regenerates them).
pub const REFERENCE: &str = include_str!("../reference.tsv");

/// Parses a reference file: one [`Pin`] per non-comment line.
pub fn parse_reference(text: &str) -> Result<Vec<Pin>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(Pin::parse)
        .collect()
}

/// Compares a run against its pin. Every failure names what differs: the
/// fingerprint, the model, or the theorem whose record changed.
pub fn compare(actual: &Pin, records: &[Record], pin: &Pin) -> Vec<String> {
    let mut fails = Vec::new();
    if actual.fingerprint != pin.fingerprint {
        fails.push(format!(
            "{}: generated corpus fingerprint {} differs from pinned {}",
            pin.workload, actual.fingerprint, pin.fingerprint
        ));
    }
    if actual.model_hash != pin.model_hash {
        fails.push(format!(
            "{}: ranking model hash {} differs from pinned {}",
            pin.workload, actual.model_hash, pin.model_hash
        ));
    }
    for (i, r) in records.iter().enumerate() {
        match pin.records.get(i) {
            Some(&want) if want == r.short() => {}
            Some(_) => fails.push(format!(
                "{}: theorem {} ({}): outcome record differs from the pinned reference \
                 (now {} after {} queries)",
                pin.workload, r.theorem, r.cell, r.outcome, r.queries
            )),
            None => fails.push(format!(
                "{}: theorem {} ({}): evaluation #{i} is beyond the pinned {} evaluations",
                pin.workload,
                r.theorem,
                r.cell,
                pin.records.len()
            )),
        }
    }
    if records.len() < pin.records.len() {
        fails.push(format!(
            "{}: {} evaluations, pinned reference has {}",
            pin.workload,
            records.len(),
            pin.records.len()
        ));
    }
    if fails.is_empty() && actual.digest != pin.digest {
        fails.push(format!(
            "{}: digest {:016x} differs from pinned {:016x}",
            pin.workload, actual.digest, pin.digest
        ));
    }
    fails
}

/// Replays every proved script in the kernel against the environment the
/// theorem was stated in; returns a failure per script that does not
/// reach `Qed`.
pub fn replay_proved(corpora: &[Corpus], records: &[Record]) -> Vec<String> {
    records
        .iter()
        .filter_map(|r| {
            let script = r.script.as_ref()?;
            let dev = &corpora[r.corpus].dev;
            let thm = &dev.theorems[r.index];
            replay_script(dev.env_before(thm), &thm.stmt, script)
                .err()
                .map(|e| {
                    format!(
                        "theorem {} ({}): proved script fails kernel replay: {e}",
                        r.theorem, r.cell
                    )
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(theorem: &str, outcome: &str, script: Option<&str>, queries: u32) -> Record {
        Record {
            corpus: 0,
            index: 0,
            cell: "cell".into(),
            theorem: theorem.into(),
            outcome: outcome.into(),
            script: script.map(String::from),
            queries,
        }
    }

    fn sample() -> Vec<Record> {
        vec![
            rec("add_0_l", "proved", Some("intros n. reflexivity."), 3),
            rec("app_nil_r", "stuck", None, 17),
            rec("star_assoc_1", "fuelout", None, 128),
        ]
    }

    #[test]
    fn pins_round_trip_through_text() {
        let recs = sample();
        let pin = Pin::of("w", Some("00ff00ff00ff00ff"), Some(0xabc), &recs);
        assert_eq!(Pin::parse(&pin.render()), Ok(pin.clone()));
        assert_eq!(pin.proved, 1);
        assert!(compare(&pin, &recs, &pin).is_empty());
    }

    #[test]
    fn digest_check_flags_a_one_field_perturbation() {
        let recs = sample();
        let pin = Pin::of("w", None, None, &recs);
        let perturbations: [fn(&mut Record); 4] = [
            |r| r.theorem.push('x'),
            |r| r.outcome = "stuck".into(),
            |r| r.script = Some("intros n. simpl. reflexivity.".into()),
            |r| r.queries += 1,
        ];
        for perturb in perturbations {
            let mut bad = recs.clone();
            perturb(&mut bad[0]);
            let actual = Pin::of("w", None, None, &bad);
            assert_ne!(actual.digest, pin.digest);
            let fails = compare(&actual, &bad, &pin);
            assert_eq!(fails.len(), 1, "{fails:?}");
            assert!(
                fails[0].contains(&bad[0].theorem),
                "failure must name the theorem: {}",
                fails[0]
            );
        }
    }

    #[test]
    fn compare_flags_missing_and_extra_evaluations_and_inputs() {
        let recs = sample();
        let pin = Pin::of("w", Some("aaaa"), None, &recs);
        let short = &recs[..2];
        assert!(
            compare(&Pin::of("w", Some("aaaa"), None, short), short, &pin)
                .iter()
                .any(|f| f.contains("2 evaluations"))
        );
        let mut long = recs.clone();
        long.push(rec("extra", "stuck", None, 1));
        assert!(
            compare(&Pin::of("w", Some("aaaa"), None, &long), &long, &pin)
                .iter()
                .any(|f| f.contains("extra"))
        );
        let moved = Pin::of("w", Some("bbbb"), Some(1), &recs);
        let fails = compare(&moved, &recs, &pin);
        assert!(fails.iter().any(|f| f.contains("fingerprint")));
        assert!(fails.iter().any(|f| f.contains("model hash")));
    }

    #[test]
    fn shipped_reference_parses() {
        let pins = parse_reference(REFERENCE).expect("reference.tsv parses");
        assert!(pins.iter().any(|p| p.workload == "table2-cold"));
    }

    #[test]
    fn replay_flags_a_script_that_does_not_prove() {
        let corpora = vec![Corpus::load()];
        let dev = &corpora[0].dev;
        let index = dev
            .theorems
            .iter()
            .position(|t| t.name == "add_0_l")
            .expect("add_0_l exists");
        let mut r = rec(
            "add_0_l",
            "proved",
            Some(&dev.theorems[index].proof_text),
            1,
        );
        r.index = index;
        assert!(replay_proved(&corpora, std::slice::from_ref(&r)).is_empty());
        r.script = Some("intros n.".into());
        let fails = replay_proved(&corpora, &[r]);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("add_0_l"));
    }
}
