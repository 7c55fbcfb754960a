//! Pins the kernel fuel and search expansions of the ten cold-grid
//! searches that spend the most fuel inside `auto`/`eauto` (GPT-4o with
//! hints, the Table 2 cell with the most). Fuel decides which tactics time
//! out, so backchaining that charged differently would change these
//! figures, and with them the paper's tables. The figures were captured
//! with the linear hint scan that predates the head-symbol filter.

use llm_fscq::corpus::Corpus;
use llm_fscq::metrics::experiment::CellConfig;
use llm_fscq::oracle::profiles::ModelProfile;
use llm_fscq::oracle::prompt::{build_prompt, PromptSetting};
use llm_fscq::oracle::split::hint_set;
use llm_fscq::search::search;

/// `(theorem, fuel_spent, expansions)`, heaviest `auto`/`eauto` user first.
const PINNED: [(&str, u64, usize); 10] = [
    ("mdisj_munion_l", 96_459, 22),
    ("mdisj_munion_intro", 41_746, 16),
    ("tnd_update", 30_701, 128),
    ("length_firstn_le", 11_822, 128),
    ("sync_crash_safe", 3_954, 10),
    ("in_app_or", 2_066, 29),
    ("incl_refl", 779, 14),
    ("crash_disk_nil", 4_139, 9),
    ("mul_add_distr_r", 28_398, 128),
    ("in_app_l", 1_468, 32),
];

/// The summed `fuel_spent` and expansions of [`PINNED`].
const TOTAL: (u64, usize) = (221_532, 516);

#[test]
fn backchaining_heavy_searches_keep_their_fuel_and_expansions() {
    let corpus = Corpus::load();
    let hints = hint_set(&corpus.dev);
    let cell = CellConfig::standard(ModelProfile::gpt4o(), PromptSetting::Hints);
    let measured: Vec<(&str, u64, usize)> = PINNED
        .iter()
        .map(|&(name, _, _)| {
            let thm = corpus.dev.theorem(name).expect("theorem exists");
            let prompt = build_prompt(&corpus.dev, thm, &hints, &cell.prompt_config());
            let r = search(
                corpus.dev.env_before(thm),
                &thm.stmt,
                &thm.name,
                &mut cell.model(),
                &prompt,
                &cell.search,
            );
            (name, r.stats.fuel_spent, r.stats.expansions.len())
        })
        .collect();
    let total = measured
        .iter()
        .fold((0, 0), |(f, e), &(_, fuel, exp)| (f + fuel, e + exp));
    assert_eq!(total, TOTAL, "per theorem: {measured:?}");
    assert_eq!(measured, PINNED);
}
