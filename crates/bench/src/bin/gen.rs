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
//! With no subcommand, `gen` generates. `grid --dir` reads a written
//! corpus, so it takes none of the generation flags.
//!
//! ```text
//! gen generate [--seed S] [--count N] [--depth D] [--distractors K]
//!              [--hints H] [--obfuscate] [--out DIR]
//! gen validate [--dir DIR]
//! gen grid [--seed S] [--count N] [--depth D] [--distractors K] [--hints H]
//!          [--obfuscate] [--dir DIR] [--jobs N] [--fresh]
//! ```

use std::path::PathBuf;
use std::time::Instant;

use corpus_gen::{generate, read_dir, validate, GenSpec, GeneratedCorpus};
use llm_fscq_bench::{artifact_dir, GridOpts};
use proof_chaos::cli::{parse_command, Args, Cli, Flag};
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

/// The generation flags: the spec of a corpus.
const SPEC_FLAGS: [Flag; 6] = [
    Flag::parsed::<u64>("--seed", "S"),
    Flag::parsed::<usize>("--count", "N"),
    Flag::parsed::<usize>("--depth", "D"),
    Flag::parsed::<usize>("--distractors", "K"),
    Flag::parsed::<usize>("--hints", "H"),
    Flag::switch("--obfuscate"),
];

fn spec_of(args: &Args, default_count: usize) -> GenSpec {
    let mut spec = GenSpec::new(
        args.get("--seed").unwrap_or(1),
        args.get("--count").unwrap_or(default_count),
    );
    let knobs = &mut spec.knobs;
    knobs.depth = args.get("--depth").unwrap_or(knobs.depth);
    knobs.distractor_lemmas = args.get("--distractors").unwrap_or(knobs.distractor_lemmas);
    knobs.hint_pollution = args.get("--hints").unwrap_or(knobs.hint_pollution);
    knobs.obfuscate_names = args.given("--obfuscate");
    spec
}

fn dir_of(args: &Args, flag: &str) -> PathBuf {
    PathBuf::from(args.value(flag).unwrap_or(DEFAULT_DIR))
}

fn cmd_generate(args: &Args) {
    let spec = spec_of(args, 1000);
    let dir = dir_of(args, "--out");
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

fn cmd_validate(args: &Args) {
    let dir = dir_of(args, "--dir");
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

fn cmd_grid(args: &Args) {
    let corpus: GeneratedCorpus = match args.value("--dir") {
        Some(d) => {
            if SPEC_FLAGS.iter().any(|f| args.given(f.name())) {
                args.fail("gen grid: --dir reads a written corpus; drop the generation flags");
            }
            read_dir(d.as_ref()).unwrap_or_else(|e| fail(&format!("read {d}: {e}")))
        }
        None => generate(&spec_of(args, 300)),
    };
    let fingerprint = corpus.manifest.fingerprint.clone();
    let dev = corpus
        .development(false)
        .unwrap_or_else(|e| fail(&format!("generated corpus failed to load: {e}")));
    let fscq = fscq_corpus::Corpus { dev };

    let runner = GridOpts::from_args(args).runner();
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
    let dir = Flag::value("--dir", "DIR");
    let commands = [
        Cli::new("gen generate")
            .flags(&SPEC_FLAGS)
            .flags(&[Flag::value("--out", "DIR")]),
        Cli::new("gen validate").flags(&[dir]),
        Cli::new("gen grid")
            .flags(&SPEC_FLAGS)
            .flags(&[dir])
            .flags(&GridOpts::flags(&["--jobs", "--fresh"])),
    ];
    match parse_command(&commands, Some("generate")) {
        ("generate", args) => cmd_generate(&args),
        ("validate", args) => cmd_validate(&args),
        (_, args) => cmd_grid(&args),
    }
}
