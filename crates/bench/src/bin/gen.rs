//! Procedural-corpus driver: generation, witness validation, and the
//! Elo-leaderboard grid over generated corpora.
//!
//! Subcommands:
//!
//! * `generate` — synthesize a corpus for `--seed`/`--count` (plus the
//!   difficulty knobs), kernel-validating every witness before writing
//!   `GenNNN.v` files and the `gen.json` manifest to `--out`.
//! * `validate` — load a written corpus back and replay every manifest
//!   witness against the environment visible at that theorem. Exit 0 only
//!   when 100% replay.
//! * `grid` — generate (or reuse `--dir`), then run the full
//!   `metrics::runner` grid over the generated corpus for the oracle's
//!   ladder lineup, print the Elo leaderboard and append one run-ledger
//!   record; artifacts land under `target/experiments/`.
//!
//! Usage:
//!   gen generate --seed S --count N [--depth D] [--distractors K]
//!                [--hints H] [--obfuscate] [--out DIR]
//!   gen validate [--dir DIR]
//!   gen grid --seed S [--count N] [--jobs J] [--fresh] [--dir DIR]

use std::path::PathBuf;
use std::time::Instant;

use corpus_gen::{generate, read_dir, validate, GenSpec, GeneratedCorpus};
use llm_fscq_bench::{artifact_dir, flag_present, flag_value};
use proof_metrics::{elo_ladder, render_leaderboard, CellConfig, EvalScope};
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;
use proof_trace::ledger::RunRecord;

/// Default corpus directory.
const DEFAULT_DIR: &str = "target/gen/corpus";

fn fail(msg: &str) -> ! {
    eprintln!("[gen] FAIL: {msg}");
    std::process::exit(1)
}

fn parse_u64(name: &str, default: u64) -> u64 {
    match flag_value(name) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| fail(&format!("{name} expects an integer, got `{v}`"))),
    }
}

fn parse_usize(name: &str, default: usize) -> usize {
    parse_u64(name, default as u64) as usize
}

fn spec_from_args(default_count: usize) -> GenSpec {
    let mut spec = GenSpec::new(
        parse_u64("--seed", 1),
        parse_usize("--count", default_count),
    );
    spec.knobs.depth = parse_usize("--depth", spec.knobs.depth);
    spec.knobs.distractor_lemmas = parse_usize("--distractors", spec.knobs.distractor_lemmas);
    spec.knobs.hint_pollution = parse_usize("--hints", spec.knobs.hint_pollution);
    spec.knobs.obfuscate_names = flag_present("--obfuscate");
    spec
}

fn out_dir(flag: &str) -> PathBuf {
    flag_value(flag).map_or_else(|| PathBuf::from(DEFAULT_DIR), PathBuf::from)
}

fn cmd_generate() {
    let spec = spec_from_args(1000);
    let dir = out_dir("--out");
    let started = Instant::now();
    let corpus = generate(&spec);
    let gen_ms = started.elapsed().as_secs_f64() * 1e3;
    corpus
        .write_dir(&dir)
        .unwrap_or_else(|e| fail(&format!("write {}: {e}", dir.display())));
    println!(
        "[gen] seed {} -> {} theorems in {} modules ({:.0} ms, fingerprint {}) -> {}",
        spec.seed,
        corpus.manifest.count,
        corpus.manifest.modules,
        gen_ms,
        corpus.manifest.fingerprint,
        dir.display()
    );
}

fn cmd_validate() {
    let dir = out_dir("--dir");
    let corpus = read_dir(&dir).unwrap_or_else(|e| fail(&format!("read {}: {e}", dir.display())));
    let started = Instant::now();
    let report = validate(&corpus);
    println!(
        "[gen] validate: {}/{} witnesses replayed ({:.0} ms)",
        report.replayed,
        report.theorems,
        started.elapsed().as_secs_f64() * 1e3
    );
    for f in report.failures.iter().take(10) {
        eprintln!("[gen]   {f}");
    }
    if !report.is_clean() {
        fail(&format!("{} validation failures", report.failures.len()));
    }
}

/// The grid's cells: the ladder lineup, hints setting, full scope (every
/// configuration duels on every generated theorem), tagged with the corpus
/// fingerprint so cache entries can never collide with embedded-corpus
/// cells or with a differently seeded corpus.
fn ladder_cells(fingerprint: &str) -> Vec<CellConfig> {
    ModelProfile::ladder()
        .into_iter()
        .map(|p| {
            let mut cell = CellConfig::standard(p, PromptSetting::Hints);
            cell.scope = EvalScope::Full;
            cell.variant = Some(format!("gen:{fingerprint}"));
            cell
        })
        .collect()
}

fn cmd_grid() {
    let dir = flag_value("--dir").map(PathBuf::from);
    let corpus: GeneratedCorpus = match &dir {
        Some(d) => read_dir(d).unwrap_or_else(|e| fail(&format!("read {}: {e}", d.display()))),
        None => generate(&spec_from_args(300)),
    };
    let fingerprint = corpus.manifest.fingerprint.clone();
    let dev = corpus
        .development(false)
        .unwrap_or_else(|e| fail(&format!("generated corpus failed to load: {e}")));
    let fscq = fscq_corpus::Corpus { dev };

    let runner = llm_fscq_bench::runner(flag_present("--fresh"));
    let runs = llm_fscq_bench::run_grid(&runner, &fscq, &ladder_cells(&fingerprint));
    let refs = llm_fscq_bench::completed(&runs);
    let board = elo_ladder(&refs);
    print!("{}", render_leaderboard(&board));

    let art = artifact_dir();
    std::fs::create_dir_all(&art).ok();
    std::fs::write(art.join("gen_elo.txt"), render_leaderboard(&board))
        .unwrap_or_else(|e| fail(&format!("write gen_elo.txt: {e}")));
    std::fs::write(
        art.join("gen_grid.json"),
        serde_json::to_string_pretty(&refs).expect("cell results serialize"),
    )
    .unwrap_or_else(|e| fail(&format!("write gen_grid.json: {e}")));

    // Fleet ledger: one run record for the whole ladder, keyed by the
    // generated corpus fingerprint so different corpora trend as
    // different series.
    if let Some(path) = llm_fscq_bench::ledger_append(&RunRecord {
        bin: "gen".to_string(),
        label: "elo-ladder".to_string(),
        variant: format!("gen:{fingerprint}"),
        jobs: runner.jobs() as u64,
        corpus_hash: fingerprint,
        ..llm_fscq_bench::run_record(&runs)
    }) {
        eprintln!("[gen] ledger appended to {}", path.display());
    }
}

fn main() {
    let mode = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with('-'))
        .unwrap_or_else(|| "generate".to_string());
    match mode.as_str() {
        "generate" => cmd_generate(),
        "validate" => cmd_validate(),
        "grid" => cmd_grid(),
        other => {
            eprintln!(
                "usage: gen [generate|validate|grid] [--seed S] [--count N] [--depth D] \
                 [--distractors K] [--hints H] [--obfuscate] [--out DIR] [--dir DIR] \
                 [--jobs J] [--fresh] (got `{other}`)"
            );
            std::process::exit(2);
        }
    }
}
