//! Calibration sweep: explores the simulator's shape parameters against the
//! paper's Table 2 proved-rates and prints the loss per configuration.
//! Appends one run-ledger record for the whole sweep.
//!
//! Usage: `calibrate [--fresh] [--jobs N]`

use fscq_corpus::Corpus;
use llm_fscq_bench::GridOpts;
use proof_metrics::CellConfig;
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;
use proof_oracle::sim::Tuning;

const TARGETS: [(&str, f64, f64); 4] = [
    ("GPT-4o mini", 4.2, 9.1),
    ("GPT-4o", 29.2, 38.1),
    ("Gemini 1.5 Flash", 7.1, 16.3),
    ("Gemini 1.5 Pro", 11.9, 25.7),
];

fn profile_of(name: &str) -> ModelProfile {
    match name {
        "GPT-4o mini" => ModelProfile::gpt4o_mini(),
        "GPT-4o" => ModelProfile::gpt4o(),
        "Gemini 1.5 Flash" => ModelProfile::gemini_flash(),
        _ => ModelProfile::gemini_pro(),
    }
}

const SLOPES: [f64; 3] = [1.2, 1.9, 2.6];
const SKILLS: [f64; 2] = [0.6, 0.75];
const SETTINGS: [PromptSetting; 2] = [PromptSetting::Vanilla, PromptSetting::Hints];

fn main() {
    let opts = GridOpts::parse("calibrate", &GridOpts::flags(&["--fresh", "--jobs"]));
    let mut cells = Vec::new();
    for distractor_slope in SLOPES {
        for vanilla_skill in SKILLS {
            for (name, _, _) in TARGETS {
                for setting in SETTINGS {
                    let mut cell = CellConfig::standard(profile_of(name), setting);
                    cell.tuning = Tuning {
                        distractor_slope,
                        vanilla_skill,
                        ..Default::default()
                    };
                    cells.push(cell);
                }
            }
        }
    }
    let runner = opts.runner();
    let runs = llm_fscq_bench::run_grid(&runner, &Corpus::load(), &cells);
    let mut rates = llm_fscq_bench::completed(&runs)
        .into_iter()
        .map(|r| r.proved_rate() * 100.0);
    let mut results = Vec::new();
    for distractor_slope in SLOPES {
        for vanilla_skill in SKILLS {
            let mut loss = 0.0;
            let mut detail = String::new();
            for (name, tv, th) in TARGETS {
                let got: Vec<f64> = rates.by_ref().take(SETTINGS.len()).collect();
                loss += (got[0] - tv).powi(2) + (got[1] - th).powi(2);
                detail += &format!("{name}: {:.1}->{:.1} (want {tv}->{th}); ", got[0], got[1]);
            }
            println!("ds={distractor_slope} vs={vanilla_skill} loss={loss:.0}\n  {detail}");
            results.push((loss, distractor_slope, vanilla_skill));
        }
    }
    results.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    println!("best: {:?}", results.first());
    llm_fscq_bench::ledger_append_cells(
        "calibration-sweep",
        &runner,
        &runs,
        Default::default(),
        None,
    );
}
