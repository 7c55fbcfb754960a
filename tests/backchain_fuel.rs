//! Pins the kernel fuel and search expansions of two sets of ten
//! cold-grid searches. Fuel decides which tactics time out, so a kernel
//! that charged differently would change these figures, and with them the
//! paper's tables.
//!
//! - The ten that spend the most fuel inside `auto`/`eauto` (GPT-4o with
//!   hints, the Table 2 cell with the most), captured with the linear hint
//!   scan that predates the head-symbol filter.
//! - The ten, over all ten Table 2 cells, that spend the most fuel on
//!   normalization: `apply`'s conversion fallback (normalizing both sides
//!   and unifying again), `reflexivity` and `simpl`. Captured with the
//!   kernel that rebuilt every term it substituted, normalized or zonked.

use std::collections::BTreeSet;

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

/// One pinned search: `(profile, setting, theorem, fuel_spent,
/// expansions)`.
type CellPin = (fn() -> ModelProfile, PromptSetting, &'static str, u64, usize);

/// Heaviest conversion, `reflexivity` and `simpl` user first.
const PINNED_CONVERSION: [CellPin; 10] = [
    (
        ModelProfile::gemini_pro,
        PromptSetting::Hints,
        "firstn_length",
        43_413,
        128,
    ),
    (
        ModelProfile::gemini_pro_128k,
        PromptSetting::Hints,
        "ndata_log_valid_bound",
        32_193,
        33,
    ),
    (
        ModelProfile::gpt4o,
        PromptSetting::Hints,
        "ndata_log_valid_bound",
        26_888,
        25,
    ),
    (
        ModelProfile::gpt4o,
        PromptSetting::Hints,
        "mul_add_distr_r",
        28_398,
        128,
    ),
    (
        ModelProfile::gemini_pro,
        PromptSetting::Hints,
        "ndata_log_valid_bound",
        17_135,
        15,
    ),
    (
        ModelProfile::gemini_flash,
        PromptSetting::Hints,
        "hoare_write_sync",
        13_765,
        5,
    ),
    (
        ModelProfile::gemini_pro_128k,
        PromptSetting::Hints,
        "hoare_write_two",
        13_467,
        15,
    ),
    (
        ModelProfile::gpt4o,
        PromptSetting::Hints,
        "hoare_write_two",
        12_957,
        2,
    ),
    (
        ModelProfile::gemini_flash,
        PromptSetting::Vanilla,
        "hoare_write_sync",
        12_491,
        4,
    ),
    (
        ModelProfile::gemini_flash,
        PromptSetting::Hints,
        "star_exchange_rev",
        9_819,
        13,
    ),
];

/// The summed `fuel_spent` and expansions of [`PINNED_CONVERSION`].
const TOTAL_CONVERSION: (u64, usize) = (210_526, 368);

/// The `(fuel_spent, expansions)` of one search, run as the grid runs it.
fn measure(
    corpus: &Corpus,
    hints: &BTreeSet<String>,
    cell: &CellConfig,
    name: &str,
) -> (u64, usize) {
    let thm = corpus.dev.theorem(name).expect("theorem exists");
    let prompt = build_prompt(&corpus.dev, thm, hints, &cell.prompt_config());
    let r = search(
        corpus.dev.env_before(thm),
        &thm.stmt,
        &thm.name,
        &mut cell.model(),
        &prompt,
        &cell.search,
    );
    (r.stats.fuel_spent, r.stats.expansions.len())
}

/// The summed fuel and expansions of `measured`.
fn total<T>(measured: &[(T, u64, usize)]) -> (u64, usize) {
    measured
        .iter()
        .fold((0, 0), |(f, e), &(_, fuel, exp)| (f + fuel, e + exp))
}

#[test]
fn backchaining_heavy_searches_keep_their_fuel_and_expansions() {
    let corpus = Corpus::load();
    let hints = hint_set(&corpus.dev);
    let cell = CellConfig::standard(ModelProfile::gpt4o(), PromptSetting::Hints);
    let measured: Vec<(&str, u64, usize)> = PINNED
        .iter()
        .map(|&(name, _, _)| {
            let (fuel, expansions) = measure(&corpus, &hints, &cell, name);
            (name, fuel, expansions)
        })
        .collect();
    assert_eq!(total(&measured), TOTAL, "per theorem: {measured:?}");
    assert_eq!(measured, PINNED);
}

#[test]
fn conversion_heavy_searches_keep_their_fuel_and_expansions() {
    let corpus = Corpus::load();
    let hints = hint_set(&corpus.dev);
    let measured: Vec<(String, u64, usize)> = PINNED_CONVERSION
        .iter()
        .map(|&(profile, setting, name, _, _)| {
            let cell = CellConfig::standard(profile(), setting);
            let (fuel, expansions) = measure(&corpus, &hints, &cell, name);
            (format!("{} / {name}", cell.label()), fuel, expansions)
        })
        .collect();
    assert_eq!(
        total(&measured),
        TOTAL_CONVERSION,
        "per search: {measured:?}"
    );
    let expected: Vec<(u64, usize)> = PINNED_CONVERSION
        .iter()
        .map(|&(_, _, _, fuel, expansions)| (fuel, expansions))
        .collect();
    let got: Vec<(u64, usize)> = measured.iter().map(|&(_, f, e)| (f, e)).collect();
    assert_eq!(got, expected, "per search: {measured:?}");
}
