//! A parser and script runner for an SMT-LIB-flavoured text format
//! covering the string fragment handled by `posr-core`.
//!
//! Supported commands: `(declare-const x String)`, `(declare-const i Int)`,
//! `(declare-fun x () String)`, `(assert …)`, `(check-sat)`, `(push n)`,
//! `(pop n)`, `(get-model)`, `(set-logic …)`, `(set-info …)`, `(exit)`.
//! Supported term constructors: `str.++`, `str.len`, `str.at`,
//! `str.in_re`, `str.prefixof`, `str.suffixof`, `str.contains`,
//! `str.to_re`, `re.++`, `re.*`, `re.+`, `re.opt`, `re.union`, `re.range`,
//! `re.allchar`, `=`, `not`, `and`, `<=`, `<`, `>=`, `>`, `+`, string
//! literals and integer literals.
//!
//! Two entry points:
//!
//! * [`parse_script`] — the legacy one-shot view: every assertion is
//!   flattened into one conjunction, `(push)`/`(pop)` are rejected.
//! * [`parse_commands`] + [`run_script`] — the command stream: a script
//!   may push and pop assertion frames and issue multiple `(check-sat)`
//!   and `(get-model)` commands; `run_script` replays it against an
//!   incremental [`posr_core::session::SolverSession`] and returns the
//!   per-command responses.
//!
//! # Example
//!
//! ```
//! use posr_smtfmt::parse_script;
//! let script = r#"
//!   (declare-const x String)
//!   (declare-const y String)
//!   (assert (str.in_re x (re.* (str.to_re "ab"))))
//!   (assert (not (= x y)))
//!   (assert (= (str.len x) (str.len y)))
//!   (check-sat)
//! "#;
//! // (x unconstrained beyond (ab)*, y free — satisfiable)
//! let parsed = parse_script(script).unwrap();
//! assert_eq!(parsed.formula.atoms.len(), 3);
//! assert!(parsed.check_sat);
//! ```
//!
//! Multiple `(check-sat)`s through the incremental session:
//!
//! ```
//! use posr_smtfmt::run_script;
//! let outcome = run_script(r#"
//!   (declare-const x String)
//!   (assert (str.in_re x (str.to_re "ab")))
//!   (check-sat)
//!   (push 1)
//!   (assert (not (= x "ab")))
//!   (check-sat)
//!   (pop 1)
//!   (check-sat)
//! "#).unwrap();
//! assert_eq!(outcome.statuses(), ["sat", "unsat", "sat"]);
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use posr_core::ast::{LenCmp, LenTerm, StringAtom, StringFormula, StringTerm};
use posr_core::session::SolverSession;
use posr_core::solver::{answer_status, Answer, SolverOptions, StringModel};

/// A parsed script: the conjunction of all assertions plus bookkeeping.
#[derive(Clone, Debug, Default)]
pub struct ParsedScript {
    /// The conjunction of all `(assert …)` commands.
    pub formula: StringFormula,
    /// Declared string variables.
    pub string_vars: Vec<String>,
    /// Declared integer variables.
    pub int_vars: Vec<String>,
    /// Whether the script contains `(check-sat)`.
    pub check_sat: bool,
    /// A solver-strategy hint from `(set-info :posr-strategy NAME)` or
    /// `(set-option :posr-strategy NAME)`; the portfolio engine uses it to
    /// narrow its race.
    pub strategy_hint: Option<String>,
    /// The expected verdict from `(set-info :status sat|unsat|unknown)`,
    /// when the script declares one.
    pub expected_status: Option<String>,
}

/// A parse error with a rough character position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Position in the input.
    pub position: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// An s-expression.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Sexp {
    Atom(String),
    Str(String),
    List(Vec<Sexp>),
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
}

impl Lexer {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        loop {
            while self.pos < self.chars.len() && self.chars[self.pos].is_whitespace() {
                self.pos += 1;
            }
            if self.pos < self.chars.len() && self.chars[self.pos] == ';' {
                while self.pos < self.chars.len() && self.chars[self.pos] != '\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn parse_sexp(&mut self) -> Result<Sexp, ParseError> {
        self.skip_ws();
        match self.chars.get(self.pos) {
            None => Err(self.error("unexpected end of input")),
            Some('(') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    match self.chars.get(self.pos) {
                        Some(')') => {
                            self.pos += 1;
                            return Ok(Sexp::List(items));
                        }
                        None => return Err(self.error("unterminated list")),
                        _ => items.push(self.parse_sexp()?),
                    }
                }
            }
            Some('"') => {
                self.pos += 1;
                let mut out = String::new();
                while let Some(&c) = self.chars.get(self.pos) {
                    self.pos += 1;
                    if c == '"' {
                        if self.chars.get(self.pos) == Some(&'"') {
                            out.push('"');
                            self.pos += 1;
                        } else {
                            return Ok(Sexp::Str(out));
                        }
                    } else {
                        out.push(c);
                    }
                }
                Err(self.error("unterminated string literal"))
            }
            Some(_) => {
                let start = self.pos;
                while let Some(&c) = self.chars.get(self.pos) {
                    if c.is_whitespace() || c == '(' || c == ')' {
                        break;
                    }
                    self.pos += 1;
                }
                Ok(Sexp::Atom(self.chars[start..self.pos].iter().collect()))
            }
        }
    }

    fn parse_all(&mut self) -> Result<Vec<Sexp>, ParseError> {
        let mut out = Vec::new();
        loop {
            self.skip_ws();
            if self.pos >= self.chars.len() {
                return Ok(out);
            }
            out.push(self.parse_sexp()?);
        }
    }
}

/// The largest `(push n)` / `(pop n)` level accepted from a script —
/// far above any real use, small enough that a hostile numeral cannot
/// drive an allocation loop.
const MAX_STACK_LEVELS: usize = 10_000;

/// The sort of a declared constant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sort {
    /// `String`
    String,
    /// `Int`
    Int,
}

/// One command of a parsed SMT-LIB script, in script order.
#[derive(Clone, Debug)]
pub enum Command {
    /// `(declare-const name sort)` / `(declare-fun name () sort)`.
    Declare {
        /// The constant's name.
        name: String,
        /// Its sort.
        sort: Sort,
    },
    /// `(assert …)`, already converted into the atom conjunction; the
    /// name comes from an `(! … :named n)` annotation, when present.
    Assert {
        /// The conjunction the assertion flattens into.
        atoms: Vec<StringAtom>,
        /// The `:named` label reported by `(get-unsat-core)`.
        name: Option<String>,
    },
    /// `(push n)`.
    Push(usize),
    /// `(pop n)`.
    Pop(usize),
    /// `(check-sat)`.
    CheckSat,
    /// `(get-model)`.
    GetModel,
    /// `(get-unsat-core)`.
    GetUnsatCore,
    /// `(get-proof)`.
    GetProof,
    /// `(get-info :keyword)`; the payload is the keyword, colon included.
    GetInfo(String),
    /// `(exit)`.
    Exit,
}

/// A script parsed as a command stream (see [`parse_commands`]).
#[derive(Clone, Debug, Default)]
pub struct ParsedCommands {
    /// The commands, in script order (metadata commands are folded into
    /// the fields below).
    pub commands: Vec<Command>,
    /// A solver-strategy hint from `(set-info :posr-strategy NAME)`.
    pub strategy_hint: Option<String>,
    /// The expected verdict from `(set-info :status …)`, when declared.
    pub expected_status: Option<String>,
    /// `(set-option :produce-unsat-cores true)` anywhere in the script
    /// (this subset applies it to the whole run rather than positionally).
    pub produce_unsat_cores: bool,
    /// `(set-option :produce-proofs true)` anywhere in the script.
    pub produce_proofs: bool,
    /// `(set-option :verbosity n)`: at `1` or higher, every `(check-sat)`
    /// is followed by an informational response with its wall time.
    pub verbosity: u32,
}

/// Parses a script into its command stream, supporting `(push n)`,
/// `(pop n)`, multiple `(check-sat)` and `(get-model)`.  Declarations are
/// global (not scoped to their frame), which is the only place this subset
/// is more lenient than SMT-LIB.
///
/// # Errors
/// Returns a [`ParseError`] on malformed input or unsupported constructs.
pub fn parse_commands(input: &str) -> Result<ParsedCommands, ParseError> {
    let mut lexer = Lexer {
        chars: input.chars().collect(),
        pos: 0,
    };
    let sexps = lexer.parse_all()?;
    let mut script = ParsedCommands::default();
    let mut sorts: BTreeMap<String, String> = BTreeMap::new();
    for sexp in sexps {
        let Sexp::List(items) = &sexp else {
            return Err(ParseError {
                position: 0,
                message: format!("expected a command, got {sexp:?}"),
            });
        };
        let Some(Sexp::Atom(head)) = items.first() else {
            return Err(ParseError {
                position: 0,
                message: "empty command".to_string(),
            });
        };
        match head.as_str() {
            "set-logic" => {}
            "exit" => script.commands.push(Command::Exit),
            "get-model" => script.commands.push(Command::GetModel),
            "get-unsat-core" => script.commands.push(Command::GetUnsatCore),
            "get-proof" => script.commands.push(Command::GetProof),
            "get-info" => {
                let Some(Sexp::Atom(key)) = items.get(1) else {
                    return Err(ParseError {
                        position: 0,
                        message: format!("malformed get-info: {items:?}"),
                    });
                };
                script.commands.push(Command::GetInfo(key.clone()));
            }
            "check-sat" => script.commands.push(Command::CheckSat),
            "push" | "pop" => {
                let n = match items.get(1) {
                    None => 1,
                    Some(Sexp::Atom(n)) => n.parse::<usize>().map_err(|_| ParseError {
                        position: 0,
                        message: format!("malformed {head} level: {n}"),
                    })?,
                    Some(other) => {
                        return Err(ParseError {
                            position: 0,
                            message: format!("malformed {head} level: {other:?}"),
                        })
                    }
                };
                // scripts are untrusted input: a stack depth nobody could
                // legitimately use must not turn into an allocation loop
                if n > MAX_STACK_LEVELS {
                    return Err(ParseError {
                        position: 0,
                        message: format!(
                            "({head} {n}) exceeds the supported stack depth {MAX_STACK_LEVELS}"
                        ),
                    });
                }
                script.commands.push(if head == "push" {
                    Command::Push(n)
                } else {
                    Command::Pop(n)
                });
            }
            "set-info" | "set-option" => {
                // recognised annotations; anything else is silently ignored,
                // matching the usual SMT-LIB tolerance for unknown metadata
                if let (Some(Sexp::Atom(key)), Some(value)) = (items.get(1), items.get(2)) {
                    let value = match value {
                        Sexp::Atom(v) => Some(v.clone()),
                        Sexp::Str(v) => Some(v.clone()),
                        Sexp::List(_) => None,
                    };
                    match (key.as_str(), value) {
                        (":posr-strategy", Some(v)) => script.strategy_hint = Some(v),
                        (":status", Some(v)) => script.expected_status = Some(v),
                        (":produce-unsat-cores", Some(v)) => {
                            script.produce_unsat_cores = v == "true";
                        }
                        (":produce-proofs", Some(v)) => script.produce_proofs = v == "true",
                        (":verbosity", Some(v)) => {
                            script.verbosity = v.parse().map_err(|_| ParseError {
                                position: 0,
                                message: format!("malformed verbosity level: {v}"),
                            })?;
                        }
                        _ => {}
                    }
                }
            }
            "declare-const" | "declare-fun" => {
                let (name, sort) = match (head.as_str(), items.len()) {
                    ("declare-const", 3) => (&items[1], &items[2]),
                    ("declare-fun", 4) => (&items[1], &items[3]),
                    _ => {
                        return Err(ParseError {
                            position: 0,
                            message: format!("malformed declaration: {items:?}"),
                        })
                    }
                };
                let (Sexp::Atom(name), Sexp::Atom(sort)) = (name, sort) else {
                    return Err(ParseError {
                        position: 0,
                        message: "malformed declaration".into(),
                    });
                };
                let parsed_sort = match sort.as_str() {
                    "String" => Sort::String,
                    "Int" => Sort::Int,
                    other => {
                        return Err(ParseError {
                            position: 0,
                            message: format!("unsupported sort {other}"),
                        })
                    }
                };
                sorts.insert(name.clone(), sort.clone());
                script.commands.push(Command::Declare {
                    name: name.clone(),
                    sort: parsed_sort,
                });
            }
            "assert" => {
                if items.len() != 2 {
                    return Err(ParseError {
                        position: 0,
                        message: "malformed assert".into(),
                    });
                }
                // unwrap an `(! expr :named n)` annotation wrapper
                let (body, name) = match &items[1] {
                    Sexp::List(inner) if matches!(inner.first(), Some(Sexp::Atom(h)) if h == "!") =>
                    {
                        let mut name = None;
                        let mut i = 2;
                        while i + 1 < inner.len() {
                            if let (Sexp::Atom(key), Sexp::Atom(v)) = (&inner[i], &inner[i + 1]) {
                                if key == ":named" {
                                    name = Some(v.clone());
                                }
                            }
                            i += 2;
                        }
                        let Some(body) = inner.get(1) else {
                            return Err(ParseError {
                                position: 0,
                                message: "empty (! …) annotation".into(),
                            });
                        };
                        (body, name)
                    }
                    other => (other, None),
                };
                let atoms = convert_bool(body, &sorts, false)?;
                script.commands.push(Command::Assert { atoms, name });
            }
            other => {
                return Err(ParseError {
                    position: 0,
                    message: format!("unsupported command {other}"),
                })
            }
        }
    }
    Ok(script)
}

/// Parses a whole script into the one-shot flattened view: all assertions
/// conjoined, `check_sat` set if any `(check-sat)` occurs.  Scripts using
/// `(push)`/`(pop)` are rejected — drive those through [`run_script`].
///
/// # Errors
/// Returns a [`ParseError`] on malformed input or unsupported constructs.
pub fn parse_script(input: &str) -> Result<ParsedScript, ParseError> {
    let commands = parse_commands(input)?;
    let mut script = ParsedScript {
        strategy_hint: commands.strategy_hint,
        expected_status: commands.expected_status,
        ..ParsedScript::default()
    };
    for command in commands.commands {
        match command {
            Command::Declare { name, sort } => match sort {
                Sort::String => script.string_vars.push(name),
                Sort::Int => script.int_vars.push(name),
            },
            Command::Assert { atoms, .. } => script.formula.atoms.extend(atoms),
            Command::CheckSat => script.check_sat = true,
            Command::GetModel
            | Command::GetUnsatCore
            | Command::GetProof
            | Command::GetInfo(_)
            | Command::Exit => {}
            Command::Push(_) | Command::Pop(_) => {
                return Err(ParseError {
                    position: 0,
                    message: "push/pop need the incremental command stream; use run_script instead"
                        .to_string(),
                })
            }
        }
    }
    Ok(script)
}

/// The response to one answering command of a script run.
#[derive(Clone, Debug)]
pub enum CommandResponse {
    /// The answer of a `(check-sat)`.
    CheckSat(Answer),
    /// The model printed by `(get-model)` (`None` when no satisfiable
    /// check preceded it).
    Model(Option<StringModel>),
    /// The named-assertion core printed by `(get-unsat-core)` (`None`
    /// when the previous check did not answer `unsat` with
    /// `:produce-unsat-cores` on).
    UnsatCore(Option<Vec<String>>),
    /// The `posr-proof` documents printed by `(get-proof)` (`None` when
    /// the previous check did not answer `unsat` with `:produce-proofs`
    /// on; empty when the refutation never reached the LIA engine).
    Proof(Option<Vec<String>>),
    /// An informational attr-value response: the answer to `(get-info …)`
    /// or, under `(set-option :verbosity 1)`, the per-check timing line.
    /// Rendered verbatim.
    Info(String),
}

/// Everything a script run produced, in command order.
#[derive(Clone, Debug, Default)]
pub struct ScriptOutcome {
    /// One entry per `(check-sat)` / `(get-model)` command.
    pub responses: Vec<CommandResponse>,
    /// The expected verdict from the script's `(set-info :status …)`.
    pub expected_status: Option<String>,
}

impl ScriptOutcome {
    /// The `check-sat` answers, in order.
    pub fn checks(&self) -> Vec<&Answer> {
        self.responses
            .iter()
            .filter_map(|r| match r {
                CommandResponse::CheckSat(a) => Some(a),
                _ => None,
            })
            .collect()
    }

    /// The `check-sat` answers as status strings (`"sat"`, `"unsat"`,
    /// `"unknown"`), in order.
    pub fn statuses(&self) -> Vec<&'static str> {
        self.checks().into_iter().map(answer_status).collect()
    }

    /// Renders the responses the way an SMT-LIB solver would print them.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for response in &self.responses {
            match response {
                CommandResponse::CheckSat(answer) => {
                    let _ = writeln!(out, "{}", answer_status(answer));
                }
                CommandResponse::Model(None) => {
                    let _ = writeln!(out, "(error \"no model available\")");
                }
                CommandResponse::Model(Some(model)) => {
                    let _ = writeln!(out, "(");
                    for (name, value) in model.strings() {
                        let _ = writeln!(
                            out,
                            "  (define-fun {name} () String \"{}\")",
                            value.replace('"', "\"\"")
                        );
                    }
                    for (name, value) in model.ints() {
                        let _ = writeln!(out, "  (define-fun {name} () Int {value})");
                    }
                    let _ = writeln!(out, ")");
                }
                CommandResponse::UnsatCore(None) => {
                    let _ = writeln!(out, "(error \"no unsat core available\")");
                }
                CommandResponse::UnsatCore(Some(core)) => {
                    let _ = writeln!(out, "({})", core.join(" "));
                }
                CommandResponse::Proof(None) => {
                    let _ = writeln!(out, "(error \"no proof available\")");
                }
                CommandResponse::Proof(Some(docs)) => {
                    for doc in docs {
                        let _ = write!(out, "{doc}");
                        if !doc.ends_with('\n') {
                            let _ = writeln!(out);
                        }
                    }
                    if docs.is_empty() {
                        let _ = writeln!(
                            out,
                            "c unsat established without the LIA engine; no proof document"
                        );
                    }
                }
                CommandResponse::Info(text) => {
                    let _ = writeln!(out, "{text}");
                }
            }
        }
        out
    }
}

/// Parses and executes a script as a command stream against an incremental
/// [`SolverSession`]: assertions accumulate, `(push)`/`(pop)` scope them,
/// and every `(check-sat)` decides the conjunction live at that point.
///
/// # Errors
/// Returns a [`ParseError`] on malformed input, unsupported constructs, or
/// a `(pop)` below the bottom of the assertion stack.
pub fn run_script(input: &str) -> Result<ScriptOutcome, ParseError> {
    run_script_with_options(input, SolverOptions::default())
}

/// [`run_script`] with explicit solver options for every `check-sat`.
///
/// # Errors
/// See [`run_script`].
pub fn run_script_with_options(
    input: &str,
    options: SolverOptions,
) -> Result<ScriptOutcome, ParseError> {
    let parsed = parse_commands(input)?;
    let mut session = SolverSession::with_options(options);
    session.set_produce_unsat_cores(parsed.produce_unsat_cores);
    session.set_produce_proofs(parsed.produce_proofs);
    let mut outcome = ScriptOutcome {
        responses: Vec::new(),
        expected_status: parsed.expected_status,
    };
    let mut checks = 0u64;
    for command in parsed.commands {
        match command {
            Command::Declare { .. } => {}
            Command::Assert { atoms, name } => {
                // a name on a multi-atom assertion labels the whole
                // conjunction: every conjunct carries the same name
                for atom in atoms {
                    session.assert_named(atom, name.clone());
                }
            }
            Command::Push(n) => session.push(n),
            Command::Pop(n) => {
                if !session.pop(n) {
                    return Err(ParseError {
                        position: 0,
                        message: format!(
                            "(pop {n}) below the bottom of the assertion stack (depth {})",
                            session.depth()
                        ),
                    });
                }
            }
            Command::CheckSat => {
                let before = session.check_time();
                let answer = session.check_sat();
                outcome
                    .responses
                    .push(CommandResponse::CheckSat(answer.clone()));
                if parsed.verbosity >= 1 {
                    checks += 1;
                    let elapsed = session.check_time().saturating_sub(before);
                    outcome.responses.push(CommandResponse::Info(format!(
                        "(:check {checks} :status {} :time-ms {:.3})",
                        answer_status(&answer),
                        elapsed.as_secs_f64() * 1e3,
                    )));
                }
            }
            Command::GetModel => {
                outcome
                    .responses
                    .push(CommandResponse::Model(session.last_model().cloned()));
            }
            Command::GetUnsatCore => {
                let core = session.last_unsat_core().map(|names| {
                    // one name per assertion, even when a conjunction
                    // flattened into several atoms sharing it
                    let mut seen = Vec::new();
                    for name in names {
                        if !seen.contains(name) {
                            seen.push(name.clone());
                        }
                    }
                    seen
                });
                outcome.responses.push(CommandResponse::UnsatCore(core));
            }
            Command::GetProof => {
                outcome.responses.push(CommandResponse::Proof(
                    session.last_proofs().map(<[String]>::to_vec),
                ));
            }
            Command::GetInfo(key) => {
                let text = match key.as_str() {
                    ":all-statistics" => {
                        let stats = session.statistics();
                        let mut text = String::from("(");
                        for (i, (key, value)) in stats.iter().enumerate() {
                            if i > 0 {
                                text.push_str("\n ");
                            }
                            let _ = write!(text, ":{key} {value}");
                        }
                        text.push(')');
                        text
                    }
                    ":name" => "(:name \"posr\")".to_string(),
                    ":error-behavior" => "(:error-behavior continued-execution)".to_string(),
                    _ => "unsupported".to_string(),
                };
                outcome.responses.push(CommandResponse::Info(text));
            }
            Command::Exit => break,
        }
    }
    Ok(outcome)
}

fn err(message: String) -> ParseError {
    ParseError {
        position: 0,
        message,
    }
}

fn convert_bool(
    sexp: &Sexp,
    sorts: &BTreeMap<String, String>,
    negated: bool,
) -> Result<Vec<StringAtom>, ParseError> {
    match sexp {
        Sexp::List(items) => {
            let Some(Sexp::Atom(head)) = items.first() else {
                return Err(err("expected an operator".to_string()));
            };
            match head.as_str() {
                "and" if !negated => {
                    let mut out = Vec::new();
                    for item in &items[1..] {
                        out.extend(convert_bool(item, sorts, false)?);
                    }
                    Ok(out)
                }
                "not" => convert_bool(&items[1], sorts, !negated),
                "=" => convert_equality(&items[1], &items[2], sorts, negated),
                "str.in_re" => {
                    let var = expect_string_var(&items[1])?;
                    let regex = convert_regex(&items[2])?;
                    Ok(vec![StringAtom::InRe {
                        var,
                        regex: regex.to_string(),
                        negated,
                    }])
                }
                "str.prefixof" => Ok(vec![StringAtom::PrefixOf {
                    needle: convert_string_term(&items[1], sorts)?,
                    haystack: convert_string_term(&items[2], sorts)?,
                    negated,
                }]),
                "str.suffixof" => Ok(vec![StringAtom::SuffixOf {
                    needle: convert_string_term(&items[1], sorts)?,
                    haystack: convert_string_term(&items[2], sorts)?,
                    negated,
                }]),
                "str.contains" => Ok(vec![StringAtom::Contains {
                    haystack: convert_string_term(&items[1], sorts)?,
                    needle: convert_string_term(&items[2], sorts)?,
                    negated,
                }]),
                "<=" | "<" | ">=" | ">" => {
                    let cmp = match (head.as_str(), negated) {
                        ("<=", false) => LenCmp::Le,
                        ("<", false) => LenCmp::Lt,
                        (">=", false) => LenCmp::Ge,
                        (">", false) => LenCmp::Gt,
                        ("<=", true) => LenCmp::Gt,
                        ("<", true) => LenCmp::Ge,
                        (">=", true) => LenCmp::Lt,
                        _ => LenCmp::Le,
                    };
                    Ok(vec![StringAtom::Length {
                        lhs: convert_int_term(&items[1], sorts)?,
                        cmp,
                        rhs: convert_int_term(&items[2], sorts)?,
                    }])
                }
                other => Err(err(format!("unsupported boolean operator {other}"))),
            }
        }
        other => Err(err(format!("unsupported assertion {other:?}"))),
    }
}

fn is_int_sexp(sexp: &Sexp, sorts: &BTreeMap<String, String>) -> bool {
    match sexp {
        Sexp::Atom(a) => {
            a.parse::<i64>().is_ok() || sorts.get(a).map(String::as_str) == Some("Int")
        }
        Sexp::Str(_) => false,
        Sexp::List(items) => matches!(
            items.first(),
            Some(Sexp::Atom(h)) if h == "str.len" || h == "+" || h == "-"
        ),
    }
}

fn convert_equality(
    lhs: &Sexp,
    rhs: &Sexp,
    sorts: &BTreeMap<String, String>,
    negated: bool,
) -> Result<Vec<StringAtom>, ParseError> {
    if is_int_sexp(lhs, sorts) || is_int_sexp(rhs, sorts) {
        return Ok(vec![StringAtom::Length {
            lhs: convert_int_term(lhs, sorts)?,
            cmp: if negated { LenCmp::Ne } else { LenCmp::Eq },
            rhs: convert_int_term(rhs, sorts)?,
        }]);
    }
    // (= x (str.at t i)) gets dedicated treatment
    for (a, b) in [(lhs, rhs), (rhs, lhs)] {
        if let (Sexp::Atom(name), Sexp::List(items)) = (a, b) {
            if matches!(items.first(), Some(Sexp::Atom(h)) if h == "str.at")
                && sorts.get(name).map(String::as_str) == Some("String")
            {
                return Ok(vec![StringAtom::StrAt {
                    var: name.clone(),
                    term: convert_string_term(&items[1], sorts)?,
                    index: convert_int_term(&items[2], sorts)?,
                    negated,
                }]);
            }
        }
    }
    Ok(vec![StringAtom::Equation {
        lhs: convert_string_term(lhs, sorts)?,
        rhs: convert_string_term(rhs, sorts)?,
        negated,
    }])
}

fn expect_string_var(sexp: &Sexp) -> Result<String, ParseError> {
    match sexp {
        Sexp::Atom(a) => Ok(a.clone()),
        other => Err(err(format!("expected a string variable, got {other:?}"))),
    }
}

#[allow(clippy::only_used_in_recursion)] // uniform converter signature
fn convert_string_term(
    sexp: &Sexp,
    sorts: &BTreeMap<String, String>,
) -> Result<StringTerm, ParseError> {
    match sexp {
        Sexp::Atom(a) => Ok(StringTerm::var(a)),
        Sexp::Str(s) => Ok(StringTerm::lit(s)),
        Sexp::List(items) => {
            let Some(Sexp::Atom(head)) = items.first() else {
                return Err(err("expected a string operator".to_string()));
            };
            match head.as_str() {
                "str.++" => {
                    let mut parts = Vec::new();
                    for item in &items[1..] {
                        parts.push(convert_string_term(item, sorts)?);
                    }
                    Ok(StringTerm::concat(parts))
                }
                other => Err(err(format!("unsupported string operator {other}"))),
            }
        }
    }
}

fn convert_int_term(sexp: &Sexp, sorts: &BTreeMap<String, String>) -> Result<LenTerm, ParseError> {
    match sexp {
        Sexp::Atom(a) => {
            if let Ok(k) = a.parse::<i64>() {
                Ok(LenTerm::constant(k))
            } else {
                Ok(LenTerm::int_var(a))
            }
        }
        Sexp::Str(_) => Err(err("string literal in integer position".to_string())),
        Sexp::List(items) => {
            let Some(Sexp::Atom(head)) = items.first() else {
                return Err(err("expected an integer operator".to_string()));
            };
            match head.as_str() {
                "str.len" => {
                    let term = convert_string_term(&items[1], sorts)?;
                    let mut out = LenTerm::default();
                    for part in &term.parts {
                        match part {
                            posr_core::ast::TermPart::Var(v) => out.add(&LenTerm::len(v)),
                            posr_core::ast::TermPart::Lit(w) => {
                                out.add(&LenTerm::constant(w.chars().count() as i64))
                            }
                        }
                    }
                    Ok(out)
                }
                "+" => {
                    let mut out = LenTerm::default();
                    for item in &items[1..] {
                        out.add(&convert_int_term(item, sorts)?);
                    }
                    Ok(out)
                }
                other => Err(err(format!("unsupported integer operator {other}"))),
            }
        }
    }
}

/// Converts an SMT-LIB regular expression into a [`posr_automata::Regex`].
fn convert_regex(sexp: &Sexp) -> Result<posr_automata::Regex, ParseError> {
    use posr_automata::Regex;
    match sexp {
        Sexp::Atom(a) if a == "re.allchar" => Ok(Regex::Class(
            posr_automata::regex::DEFAULT_ALPHABET.chars().collect(),
        )),
        Sexp::Atom(a) if a == "re.none" => Ok(Regex::Empty),
        Sexp::Atom(a) => Err(err(format!("unsupported regex atom {a}"))),
        Sexp::Str(_) => Err(err(
            "bare string in regex position; use str.to_re".to_string()
        )),
        Sexp::List(items) => {
            let Some(Sexp::Atom(head)) = items.first() else {
                return Err(err("expected a regex operator".to_string()));
            };
            match head.as_str() {
                "str.to_re" => match &items[1] {
                    Sexp::Str(s) if s.is_empty() => Ok(Regex::Epsilon),
                    Sexp::Str(s) => {
                        let mut re: Option<Regex> = None;
                        for c in s.chars() {
                            let lit = Regex::Literal(c);
                            re = Some(match re {
                                None => lit,
                                Some(prev) => Regex::Concat(Box::new(prev), Box::new(lit)),
                            });
                        }
                        Ok(re.expect("non-empty"))
                    }
                    other => Err(err(format!(
                        "str.to_re expects a string literal, got {other:?}"
                    ))),
                },
                "re.++" => {
                    let mut parts = items[1..].iter().map(convert_regex);
                    let first = parts
                        .next()
                        .ok_or_else(|| err("empty re.++".to_string()))??;
                    let mut acc = first;
                    for p in parts {
                        acc = Regex::Concat(Box::new(acc), Box::new(p?));
                    }
                    Ok(acc)
                }
                "re.union" => {
                    let mut parts = items[1..].iter().map(convert_regex);
                    let first = parts
                        .next()
                        .ok_or_else(|| err("empty re.union".to_string()))??;
                    let mut acc = first;
                    for p in parts {
                        acc = Regex::Alt(Box::new(acc), Box::new(p?));
                    }
                    Ok(acc)
                }
                "re.*" => Ok(Regex::Star(Box::new(convert_regex(&items[1])?))),
                "re.+" => Ok(Regex::Plus(Box::new(convert_regex(&items[1])?))),
                "re.opt" => Ok(Regex::Opt(Box::new(convert_regex(&items[1])?))),
                "re.range" => match (&items[1], &items[2]) {
                    (Sexp::Str(lo), Sexp::Str(hi)) if lo.len() == 1 && hi.len() == 1 => {
                        let lo = lo.chars().next().expect("len 1");
                        let hi = hi.chars().next().expect("len 1");
                        let chars: Vec<char> =
                            (lo as u32..=hi as u32).filter_map(char::from_u32).collect();
                        Ok(Regex::Class(chars))
                    }
                    _ => Err(err(
                        "re.range expects two single-character strings".to_string()
                    )),
                },
                other => Err(err(format!("unsupported regex operator {other}"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_declarations_and_assertions() {
        let script = r#"
          (set-logic QF_S)
          (declare-const x String)
          (declare-const n Int)
          (assert (str.in_re x (re.+ (str.to_re "ab"))))
          (assert (= (str.len x) n))
          (check-sat)
        "#;
        let parsed = parse_script(script).unwrap();
        assert_eq!(parsed.string_vars, vec!["x"]);
        assert_eq!(parsed.int_vars, vec!["n"]);
        assert_eq!(parsed.formula.atoms.len(), 2);
        assert!(parsed.check_sat);
    }

    #[test]
    fn parses_disequalities_and_contains() {
        let script = r#"
          (declare-const x String)
          (declare-const y String)
          (assert (not (= (str.++ x y) (str.++ y x))))
          (assert (not (str.contains y x)))
        "#;
        let parsed = parse_script(script).unwrap();
        assert_eq!(parsed.formula.atoms.len(), 2);
        match &parsed.formula.atoms[0] {
            StringAtom::Equation { negated, .. } => assert!(*negated),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_regex_operators() {
        let script = r#"
          (declare-const x String)
          (assert (str.in_re x (re.union (re.* (str.to_re "ab")) (re.range "a" "d"))))
        "#;
        let parsed = parse_script(script).unwrap();
        match &parsed.formula.atoms[0] {
            StringAtom::InRe { regex, .. } => {
                let nfa = posr_automata::Regex::parse(regex).unwrap().compile();
                assert!(nfa.accepts_str("abab"));
                assert!(nfa.accepts_str("c"));
                assert!(!nfa.accepts_str("e"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_str_at() {
        let script = r#"
          (declare-const c String)
          (declare-const y String)
          (declare-const i Int)
          (assert (not (= c (str.at y i))))
        "#;
        let parsed = parse_script(script).unwrap();
        match &parsed.formula.atoms[0] {
            StringAtom::StrAt { var, negated, .. } => {
                assert_eq!(var, "c");
                assert!(*negated);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn solver_roundtrip_on_parsed_script() {
        // y over (ba)*: the (ab)*/(ab)* variant of this script is unsat
        // (equal lengths force equal words)
        let script = r#"
          (declare-const x String)
          (declare-const y String)
          (assert (str.in_re x (re.* (str.to_re "ab"))))
          (assert (str.in_re y (re.* (str.to_re "ba"))))
          (assert (not (= x y)))
          (assert (= (str.len x) (str.len y)))
          (check-sat)
        "#;
        let parsed = parse_script(script).unwrap();
        let answer = posr_core::StringSolver::new().solve(&parsed.formula);
        assert!(answer.is_sat());
    }

    #[test]
    fn parses_strategy_hint_and_expected_status() {
        let script = r#"
          (set-info :status unsat)
          (set-option :posr-strategy length-abstraction)
          (declare-const x String)
          (assert (str.in_re x (str.to_re "ab")))
          (assert (not (= x "ab")))
          (check-sat)
        "#;
        let parsed = parse_script(script).unwrap();
        assert_eq!(parsed.strategy_hint.as_deref(), Some("length-abstraction"));
        assert_eq!(parsed.expected_status.as_deref(), Some("unsat"));
        // unknown metadata stays ignored
        let plain = parse_script("(set-info :source \"somewhere\")").unwrap();
        assert_eq!(plain.strategy_hint, None);
        assert_eq!(plain.expected_status, None);
    }

    #[test]
    fn errors_on_unsupported_commands() {
        // the one-shot view still rejects push/pop (run_script handles them)
        assert!(parse_script("(push 1)").is_err());
        assert!(parse_script("(assert (or true false))").is_err());
        assert!(parse_script("(declare-const x Bool)").is_err());
    }

    #[test]
    fn parses_command_streams() {
        let script = r#"
          (declare-const x String)
          (assert (str.in_re x (str.to_re "ab")))
          (check-sat)
          (push 1)
          (assert (not (= x "ab")))
          (check-sat)
          (pop 1)
          (check-sat)
          (get-model)
          (exit)
          (check-sat)
        "#;
        let parsed = parse_commands(script).unwrap();
        let kinds: Vec<&str> = parsed
            .commands
            .iter()
            .map(|c| match c {
                Command::Declare { .. } => "declare",
                Command::Assert { .. } => "assert",
                Command::Push(_) => "push",
                Command::Pop(_) => "pop",
                Command::CheckSat => "check",
                Command::GetModel => "model",
                Command::GetUnsatCore => "core",
                Command::GetProof => "proof",
                Command::GetInfo(_) => "info",
                Command::Exit => "exit",
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "declare", "assert", "check", "push", "assert", "check", "pop", "check", "model",
                "exit", "check"
            ]
        );
        // default levels
        let bare = parse_commands("(push) (pop)").unwrap();
        assert!(matches!(bare.commands[0], Command::Push(1)));
        assert!(matches!(bare.commands[1], Command::Pop(1)));
    }

    #[test]
    fn run_script_executes_push_pop_and_stops_at_exit() {
        let outcome = run_script(
            r#"
              (declare-const x String)
              (assert (str.in_re x (str.to_re "ab")))
              (check-sat)
              (push 1)
              (assert (not (= x "ab")))
              (check-sat)
              (pop 1)
              (check-sat)
              (get-model)
              (exit)
              (check-sat)
            "#,
        )
        .unwrap();
        assert_eq!(outcome.statuses(), ["sat", "unsat", "sat"]);
        // the command after (exit) never ran, the model request did
        assert_eq!(outcome.responses.len(), 4);
        match outcome.responses.last().unwrap() {
            CommandResponse::Model(Some(model)) => assert_eq!(model.string("x"), "ab"),
            other => panic!("expected a model, got {other:?}"),
        }
        let rendered = outcome.render();
        assert!(rendered.contains("sat\nunsat\nsat\n"), "{rendered}");
        assert!(rendered.contains("(define-fun x () String \"ab\")"));
    }

    #[test]
    fn run_script_rejects_pop_below_the_stack() {
        assert!(run_script("(pop 1)").is_err());
        assert!(run_script("(push 1) (pop 2)").is_err());
        assert!(run_script("(push 2) (pop 2)").is_ok());
    }

    #[test]
    fn hostile_stack_levels_are_rejected_at_parse_time() {
        // scripts are untrusted input: a 20-byte script must not drive an
        // unbounded allocation loop
        assert!(parse_commands("(push 9999999999)").is_err());
        assert!(parse_commands("(pop 9999999999)").is_err());
        assert!(run_script("(push 9999999999)").is_err());
    }

    #[test]
    fn get_model_before_any_sat_check_reports_no_model() {
        let outcome = run_script("(get-model)").unwrap();
        assert!(matches!(outcome.responses[0], CommandResponse::Model(None)));
        assert!(outcome.render().contains("no model available"));
    }

    #[test]
    fn get_info_all_statistics_reports_the_session_counters() {
        let script = r#"
          (declare-const x String)
          (declare-const y String)
          (assert (str.in_re x (re.* (str.to_re "ab"))))
          (assert (str.in_re y (re.* (str.to_re "ab"))))
          (assert (= (str.len x) (str.len y)))
          (assert (not (= x y)))
          (check-sat)
          (get-info :all-statistics)
        "#;
        let outcome = run_script(script).unwrap();
        assert_eq!(outcome.statuses(), vec!["unsat"]);
        let Some(CommandResponse::Info(stats)) = outcome.responses.last() else {
            panic!("expected an Info response, got {:?}", outcome.responses);
        };
        // structure, not exact numbers: counters are process-wide and other
        // tests run concurrently in the same process
        assert!(stats.starts_with('(') && stats.ends_with(')'), "{stats}");
        for key in [
            ":checks 1",
            ":check-time-ms",
            ":conflicts",
            ":decisions",
            ":simplex-pivots",
            ":automata-cache-hits",
            ":automata-cache-misses",
            ":automata-cache-hit-ratio",
            // the CDCL(T) sub-layer times
            ":bound-propagation-us",
            ":gcd-us",
            ":explain-us",
            ":simplex-us",
            // the flight recorder's latency histograms surface as
            // percentile rows; this unsat solve runs the CDCL engine, so
            // the session scope saw simplex check() pivot samples
            ":simplex-check-pivots-count",
            ":simplex-check-pivots-p50",
            ":simplex-check-pivots-p99",
            ":simplex-check-pivots-max",
        ] {
            assert!(stats.contains(key), "missing {key} in {stats}");
        }
        assert!(outcome.render().contains(":checks 1"));
    }

    #[test]
    fn get_info_of_an_unknown_key_is_unsupported() {
        let outcome = run_script("(get-info :reason-unknown)").unwrap();
        let Some(CommandResponse::Info(text)) = outcome.responses.last() else {
            panic!("expected an Info response");
        };
        assert_eq!(text, "unsupported");
        assert!(parse_commands("(get-info)").is_err(), "missing keyword");
    }

    #[test]
    fn verbosity_adds_per_check_timing_lines() {
        let script = r#"
          (set-option :verbosity 1)
          (declare-const x String)
          (assert (str.in_re x (str.to_re "ab")))
          (check-sat)
          (push 1)
          (assert (not (= x x)))
          (check-sat)
        "#;
        let outcome = run_script(script).unwrap();
        assert_eq!(outcome.statuses(), vec!["sat", "unsat"]);
        let infos: Vec<&String> = outcome
            .responses
            .iter()
            .filter_map(|r| match r {
                CommandResponse::Info(text) => Some(text),
                _ => None,
            })
            .collect();
        assert_eq!(infos.len(), 2, "one timing line per check: {infos:?}");
        assert!(
            infos[0].contains(":check 1 :status sat :time-ms"),
            "{infos:?}"
        );
        assert!(
            infos[1].contains(":check 2 :status unsat :time-ms"),
            "{infos:?}"
        );
        // checks() must keep seeing through the interleaved Info responses
        assert_eq!(outcome.checks().len(), 2);
    }
}
