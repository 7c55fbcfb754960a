//! Corpus statistics — the reproduction of the paper's §4 "Data"
//! paragraph: theorem counts per module and category, the human-proof
//! length histogram over the Figure 1 bins, the hint/eval split sizes,
//! and the share of short proofs the coverage analysis leans on.
//! Usage: `corpus_stats`, no arguments.

use fscq_corpus::{Category, Corpus};
use proof_chaos::cli::Cli;
use proof_oracle::split::{eval_set, eval_set_small, hint_set};
use proof_oracle::tokenizer::{bin_labels, bin_of, count_tokens};
use std::collections::BTreeMap;

fn main() {
    Cli::new("corpus_stats").parse();
    let corpus = Corpus::load();
    let dev = &corpus.dev;

    println!("== FSCQ-lite corpus ==");
    println!("theorems: {}", dev.theorems.len());

    let mut per_file: BTreeMap<&str, usize> = BTreeMap::new();
    let mut per_cat: BTreeMap<&str, usize> = BTreeMap::new();
    for t in &dev.theorems {
        *per_file.entry(t.file.as_str()).or_insert(0) += 1;
        *per_cat
            .entry(Category::of_module(&t.file).label())
            .or_insert(0) += 1;
    }
    println!("\nper module (load order):");
    for f in &dev.files {
        if let Some(n) = per_file.get(f.name.as_str()) {
            println!("  {:12} {n:4}", f.name);
        }
    }
    println!("\nper category:");
    for (c, n) in &per_cat {
        println!("  {c:12} {n:4}");
    }

    println!("\nhuman-proof length histogram (tokens):");
    let mut bins = vec![0usize; bin_labels().len()];
    let mut lengths: Vec<usize> = Vec::new();
    for t in &dev.theorems {
        let n = count_tokens(&t.proof_text);
        bins[bin_of(n)] += 1;
        lengths.push(n);
    }
    for (label, n) in bin_labels().iter().zip(&bins) {
        let bar = "#".repeat((n * 60).div_ceil(dev.theorems.len().max(1)));
        println!("  {label:>10} {n:4}  {bar}");
    }
    lengths.sort_unstable();
    let under64 = lengths.iter().filter(|&&n| n < 64).count();
    println!(
        "  median {} tokens, max {} tokens, {:.1}% under 64 tokens",
        lengths[lengths.len() / 2],
        lengths.last().unwrap(),
        100.0 * under64 as f64 / lengths.len() as f64
    );

    let hints = hint_set(dev);
    let eval = eval_set(dev);
    let small = eval_set_small(dev);
    println!("\nevaluation protocol:");
    println!("  hint split          {:4} theorems (50%)", hints.len());
    println!(
        "  eval set            {:4} theorems (small models)",
        eval.len()
    );
    println!(
        "  reduced sample      {:4} theorems (large models, 40%)",
        small.len()
    );

    println!("\nlongest proofs:");
    let mut by_len: Vec<&_> = dev.theorems.iter().collect();
    by_len.sort_by_key(|t| std::cmp::Reverse(count_tokens(&t.proof_text)));
    for t in by_len.iter().take(5) {
        println!(
            "  {:28} {:5} tokens ({})",
            t.name,
            count_tokens(&t.proof_text),
            t.file
        );
    }
}
