//! The s-expression wire protocol over a [`ProofSession`].
//!
//! Requests (SerAPI-flavoured):
//!
//! ```text
//! (Add (at <id>) (tactic "<sentence>"))
//! (Cancel <id>)
//! (Goals <id>)
//! (Script <id>)
//! ```
//!
//! Responses:
//!
//! ```text
//! (Added <id> <Proved|Open>)
//! (Error <Rejected|Parse|Timeout|Preflight|NoSuchState> "<msg>")
//! (Duplicate <id>)
//! (Canceled)
//! (Goals "<rendered goals>")
//! (Script "<t1>" "<t2>" ...)
//! ```

use crate::session::{AddError, ProofSession, StateId};
use crate::sexp::{parse, Sexp, SexpError};

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run a tactic at a state.
    Add {
        /// State to extend.
        at: StateId,
        /// Tactic sentence.
        tactic: String,
    },
    /// Cancel a state and its descendants.
    Cancel(StateId),
    /// Render the goals at a state.
    Goals(StateId),
    /// Return the tactic chain from the root to a state.
    Script(StateId),
}

/// Parses a request s-expression.
pub fn parse_request(src: &str) -> Result<Request, SexpError> {
    let s = parse(src)?;
    let items = s
        .as_list()
        .ok_or_else(|| SexpError("request must be a list".into()))?;
    let head = items
        .first()
        .and_then(Sexp::as_atom)
        .ok_or_else(|| SexpError("request head must be an atom".into()))?;
    let state_id = |s: &Sexp| -> Result<StateId, SexpError> {
        s.as_atom()
            .and_then(|a| a.parse::<u64>().ok())
            .map(StateId)
            .ok_or_else(|| SexpError("expected a state id".into()))
    };
    match head {
        "Add" => {
            let mut at = None;
            let mut tactic = None;
            for field in &items[1..] {
                let f = field
                    .as_list()
                    .ok_or_else(|| SexpError("Add fields must be lists".into()))?;
                match (f.first().and_then(Sexp::as_atom), f.get(1)) {
                    (Some("at"), Some(v)) => at = Some(state_id(v)?),
                    (Some("tactic"), Some(v)) => {
                        tactic = Some(
                            v.as_atom()
                                .ok_or_else(|| SexpError("tactic must be an atom".into()))?
                                .to_string(),
                        )
                    }
                    _ => return Err(SexpError("bad Add field".into())),
                }
            }
            Ok(Request::Add {
                at: at.ok_or_else(|| SexpError("Add missing (at ..)".into()))?,
                tactic: tactic.ok_or_else(|| SexpError("Add missing (tactic ..)".into()))?,
            })
        }
        "Cancel" => Ok(Request::Cancel(state_id(
            items.get(1).ok_or_else(|| SexpError("Cancel id".into()))?,
        )?)),
        "Goals" => Ok(Request::Goals(state_id(
            items.get(1).ok_or_else(|| SexpError("Goals id".into()))?,
        )?)),
        "Script" => Ok(Request::Script(state_id(
            items.get(1).ok_or_else(|| SexpError("Script id".into()))?,
        )?)),
        other => Err(SexpError(format!("unknown request {other}"))),
    }
}

/// Executes a request against a session, returning the response
/// s-expression.
pub fn handle(session: &mut ProofSession, req: &Request) -> Sexp {
    match req {
        Request::Add { at, tactic } => match session.add(*at, tactic) {
            Ok(out) => Sexp::list(vec![
                Sexp::atom("Added"),
                Sexp::atom(out.id.0.to_string()),
                Sexp::atom(if out.proved { "Proved" } else { "Open" }),
            ]),
            Err(AddError::DuplicateState(id)) => {
                Sexp::list(vec![Sexp::atom("Duplicate"), Sexp::atom(id.0.to_string())])
            }
            Err(e) => {
                let (kind, msg) = match e {
                    AddError::Rejected(m) => ("Rejected", m),
                    AddError::Parse(m) => ("Parse", m),
                    AddError::Timeout => ("Timeout", String::new()),
                    AddError::Preflight(r) => ("Preflight", r.to_string()),
                    AddError::NoSuchState => ("NoSuchState", String::new()),
                    AddError::DuplicateState(_) => unreachable!("handled above"),
                };
                Sexp::list(vec![Sexp::atom("Error"), Sexp::atom(kind), Sexp::atom(msg)])
            }
        },
        Request::Cancel(id) => {
            session.cancel(*id);
            Sexp::list(vec![Sexp::atom("Canceled")])
        }
        Request::Goals(id) => match session.display(*id) {
            Some(g) => Sexp::list(vec![Sexp::atom("Goals"), Sexp::atom(g)]),
            None => Sexp::list(vec![
                Sexp::atom("Error"),
                Sexp::atom("NoSuchState"),
                Sexp::atom(""),
            ]),
        },
        Request::Script(id) => {
            let mut items = vec![Sexp::atom("Script")];
            for t in session.script_to(*id) {
                items.push(Sexp::atom(t));
            }
            Sexp::list(items)
        }
    }
}

/// Parses and executes one request line.
pub fn handle_line(session: &mut ProofSession, line: &str) -> String {
    match parse_request(line) {
        Ok(req) => handle(session, &req).to_string(),
        Err(e) => Sexp::list(vec![
            Sexp::atom("Error"),
            Sexp::atom("Protocol"),
            Sexp::atom(e.0),
        ])
        .to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionConfig;
    use minicoq::env::Env;
    use minicoq::parse::parse_formula;

    fn session() -> ProofSession {
        let env = Env::with_prelude();
        let f = parse_formula(&env, "forall n : nat, n = n").unwrap();
        ProofSession::new(env, f, SessionConfig::default())
    }

    #[test]
    fn protocol_round_trip() {
        let mut s = session();
        let r = handle_line(&mut s, "(Add (at 0) (tactic \"intros n\"))");
        assert_eq!(r, "(Added 1 Open)");
        let r = handle_line(&mut s, "(Add (at 1) (tactic \"reflexivity\"))");
        assert_eq!(r, "(Added 2 Proved)");
        let r = handle_line(&mut s, "(Script 2)");
        assert_eq!(r, "(Script \"intros n\" reflexivity)");
        let r = handle_line(&mut s, "(Goals 1)");
        assert!(r.contains("n = n"));
    }

    #[test]
    fn protocol_errors() {
        let mut s = session();
        let r = handle_line(&mut s, "(Add (at 0) (tactic \"assumption\"))");
        assert!(r.starts_with("(Error Rejected"));
        let r = handle_line(&mut s, "(Add (at 9) (tactic \"intros\"))");
        assert!(r.contains("NoSuchState"));
        let r = handle_line(&mut s, "(Bogus)");
        assert!(r.contains("Protocol"));
        handle_line(&mut s, "(Add (at 0) (tactic \"intros a\"))");
        let r = handle_line(&mut s, "(Add (at 0) (tactic \"intros b\"))");
        assert_eq!(r, "(Duplicate 1)");
    }

    #[test]
    fn cancel_via_protocol() {
        let mut s = session();
        handle_line(&mut s, "(Add (at 0) (tactic \"intros n\"))");
        let r = handle_line(&mut s, "(Cancel 1)");
        assert_eq!(r, "(Canceled)");
        let r = handle_line(&mut s, "(Goals 1)");
        assert!(r.contains("NoSuchState"));
    }
}
