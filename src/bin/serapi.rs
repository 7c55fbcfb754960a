//! `serapi` — a SerAPI-style s-expression server over stdin/stdout.
//!
//! The paper drives Coq through SerAPI as a subprocess; this binary makes
//! the reproduction drivable the same way. Start it with a theorem name
//! (or a `--stmt` formula), then write one request per line:
//!
//! ```text
//! (Add (at 0) (tactic "intros n"))   ->  (Added 1 ...)
//! (Goals 1)                          ->  (Goals "...")
//! (Cancel 1)                         ->  (Cancelled 1)
//! (Script 2)                         ->  (Script "intros n" ...)
//! ```
//!
//! ```text
//! serapi [<theorem>] [--stmt FORMULA]
//! ```
//!
//! Exactly one of the two names the statement:
//!
//! ```sh
//! serapi add_0_r
//! serapi --stmt "forall n : nat, n = n"
//! echo '(Add (at 0) (tactic "reflexivity"))' | serapi --stmt "0 = 0"
//! ```

use llm_fscq::corpus::Corpus;
use llm_fscq::minicoq::env::Env;
use llm_fscq::minicoq::parse::parse_formula;
use llm_fscq::stm::protocol::handle_line;
use llm_fscq::stm::{ProofSession, SessionConfig};
use proof_chaos::cli::{Cli, Flag};
use std::io::{BufRead, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Cli::new("serapi")
        .positional("theorem", false)
        .flags(&[Flag::value("--stmt", "FORMULA")])
        .parse();
    let mut session = match (args.positional(0), args.value("--stmt")) {
        (None, Some(src)) => {
            let env = Env::with_prelude();
            match parse_formula(&env, src) {
                Ok(f) => ProofSession::new(env, f, SessionConfig::default()),
                Err(e) => {
                    eprintln!("bad statement: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        (Some(name), None) => {
            let corpus = Corpus::load();
            let Some(thm) = corpus.dev.theorem(name) else {
                eprintln!("unknown theorem `{name}`");
                return ExitCode::FAILURE;
            };
            ProofSession::new(
                corpus.dev.env_before(thm).clone(),
                thm.stmt.clone(),
                SessionConfig::default(),
            )
        }
        _ => args.fail("serapi: give a <theorem> or --stmt FORMULA, not both"),
    };

    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout().lock();
    // One request per line, one response per line; EOF ends the session.
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let response = handle_line(&mut session, &line);
        if writeln!(stdout, "{response}")
            .and_then(|()| stdout.flush())
            .is_err()
        {
            break;
        }
    }
    ExitCode::SUCCESS
}
