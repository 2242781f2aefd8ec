//! Ablation experiments: encoding sizes of the polynomial copy-tag
//! construction vs. the naive mismatch-order enumeration, the PTime
//! one-counter procedure vs. the system encoding at `K = 1` (solved by the
//! shared connectivity-cut loop) for a single disequality,
//! the CDCL(T) verdicts on the flagship instance set, the CEGAR loops of
//! the tag-encoding instances on one incremental session, and the
//! BENCH_lia table of per-family LIA counters.
//!
//! The flagship and CEGAR tables double as the CI smoke gates: the binary
//! exits non-zero unless (a) the CDCL engine decides every flagship
//! instance with the expected verdict, (b) every CEGAR instance reaches
//! the verdict its name states before any forced block, and (c) every
//! CEGAR instance carries `> 0` learned clauses into its post-cut
//! re-solves.  The reports go to `target/ablation-report.md` and
//! `target/ablation-incremental.md` (override with `POSR_ABLATION_REPORT`
//! / `POSR_ABLATION_INCREMENTAL`) for upload as build artifacts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use posr_automata::Regex;
use posr_core::ast::{LenCmp, LenTerm, StringFormula, StringTerm};
use posr_core::solver::{answer_status, SolverOptions, StringSolver};
use posr_lia::cancel::CancelToken;
use posr_lia::formula::Formula;
use posr_lia::incremental::IncrementalSolver;
use posr_lia::solver::SolverResult;
use posr_lia::term::{LinExpr, VarPool};
use posr_tagauto::onecounter_diseq::single_diseq_satisfiable;
use posr_tagauto::system::{Connected, CutLoop, PositionConstraint, SystemEncoder, SystemEncoding};
use posr_tagauto::system_naive::encode_naive;
use posr_tagauto::tags::VarTable;

/// Per-instance wall clock of the flagship and BENCH_lia solves.
const ENGINE_TIMEOUT: Duration = Duration::from_secs(60);

/// The flagship instance set: the loopy diseq+length family the CDCL(T)
/// rewrite exists to close, plus sat twins guarding against over-pruning.
fn flagship_instances() -> Vec<(&'static str, StringFormula, &'static str)> {
    vec![
        (
            "loopy-diseq-eqlen-unsat",
            StringFormula::new()
                .in_re("x", "(ab)*")
                .in_re("y", "(ab)*")
                .diseq(StringTerm::var("x"), StringTerm::var("y"))
                .len_eq("x", "y"),
            "unsat",
        ),
        (
            "loopy-diseq-eqlen-sat",
            StringFormula::new()
                .in_re("x", "(ab)*")
                .in_re("y", "(ba)*")
                .diseq(StringTerm::var("x"), StringTerm::var("y"))
                .len_eq("x", "y"),
            "sat",
        ),
        (
            "k2-diseq-system-unsat",
            StringFormula::new()
                .in_re("x", "a")
                .in_re("y", "a")
                .in_re("z", "a|b")
                .diseq(StringTerm::var("x"), StringTerm::var("y"))
                .diseq(StringTerm::var("z"), StringTerm::var("y")),
            "unsat",
        ),
        (
            "k2-diseq-system-sat",
            StringFormula::new()
                .in_re("x", "a|b")
                .in_re("y", "a")
                .in_re("z", "a")
                .diseq(StringTerm::var("x"), StringTerm::var("y"))
                .diseq(StringTerm::var("x"), StringTerm::var("z")),
            "sat",
        ),
        (
            "xy-yx-commutation-unsat",
            StringFormula::new()
                .in_re("x", "a*")
                .in_re("y", "a*")
                .diseq(
                    StringTerm::concat(vec![StringTerm::var("x"), StringTerm::var("y")]),
                    StringTerm::concat(vec![StringTerm::var("y"), StringTerm::var("x")]),
                ),
            "unsat",
        ),
    ]
}

/// Big-instance families for the BENCH_lia table only: product automata
/// with hundreds of states, sized to stress the tableau rather than the
/// search.  `(a^{n-1}b)*` compiles to an `n`-state cycle, so a diseq +
/// equal-length constraint over two such variables drives the tag
/// encoding through a product on the order of `n²` states, whose flow
/// rows make the tableau large.
/// Kept out of [`flagship_instances`] so the flagship table and the
/// tracing-overhead guard stay fast.
fn big_instances() -> Vec<(&'static str, StringFormula, &'static str)> {
    // an n-state cycle: exactly one word per accepted length (multiples
    // of n)
    let cycle = |n: usize| format!("({}b)*", "a".repeat(n - 1));
    vec![
        (
            // equal lengths must be common multiples of 16 and 20, and
            // the only one below 80 (= lcm) is 0 — where both words are
            // empty and the disequality fails.  Unsat by length
            // arithmetic over the 16×20-state product's flow rows (a
            // same-cycle unsat twin without the cap is correct too, but
            // needs word combinatorics over the whole product and blows
            // past any CI budget)
            "product-cycle-320-unsat",
            StringFormula::new()
                .in_re("x", &cycle(16))
                .in_re("y", &cycle(20))
                .diseq(StringTerm::var("x"), StringTerm::var("y"))
                .len_eq("x", "y")
                .length(LenTerm::len("x"), LenCmp::Lt, LenTerm::constant(80)),
            "unsat",
        ),
        (
            // co-prime-ish cycles (20, 24) meet at length lcm = 120 where
            // the two words differ, so the 20×24-state product is sat
            "product-cycle-480-sat",
            StringFormula::new()
                .in_re("x", &cycle(20))
                .in_re("y", &cycle(24))
                .diseq(StringTerm::var("x"), StringTerm::var("y"))
                .len_eq("x", "y"),
            "sat",
        ),
    ]
}

fn solve_flagship(formula: &StringFormula) -> (&'static str, Duration) {
    let start = Instant::now();
    let options = SolverOptions {
        deadline: Some(start + ENGINE_TIMEOUT),
        ..SolverOptions::default()
    };
    let answer = StringSolver::with_options(options).solve(formula);
    (answer_status(&answer), start.elapsed())
}

/// Solves the flagship set; returns the markdown report and whether the
/// CDCL engine got every expected verdict.
fn flagship_table() -> (String, bool) {
    let mut report = String::new();
    let _ = writeln!(report, "# Flagship set: CDCL(T) verdicts");
    let _ = writeln!(report);
    let _ = writeln!(report, "| instance | expected | verdict | time |");
    let _ = writeln!(report, "|---|---|---|---|");
    let mut all_ok = true;
    for (name, formula, expected) in flagship_instances() {
        let (status, time) = solve_flagship(&formula);
        let ok = status == expected;
        all_ok &= ok;
        let _ = writeln!(
            report,
            "| {name} | {expected} | {status}{} | {time:.2?} |",
            if ok { "" } else { " ❌" },
        );
    }
    let _ = writeln!(report);
    let _ = writeln!(
        report,
        "CDCL verdicts {} the expected ones.",
        if all_ok { "match" } else { "DO NOT match" }
    );
    (report, all_ok)
}

/// One CEGAR tag-encoding instance.
struct CegarInstance {
    name: &'static str,
    encoding: SystemEncoding,
    extra: Formula,
}

/// The satisfiable tag-encoding families whose CEGAR loops the incremental
/// layer exists to accelerate; each name states the instance's verdict.
fn cegar_instances() -> Vec<CegarInstance> {
    let build = |specs: &[(&str, &str)],
                 constraints: &dyn Fn(&[posr_tagauto::tags::StrVar]) -> Vec<PositionConstraint>,
                 extra: &dyn Fn(&SystemEncoding, &[posr_tagauto::tags::StrVar]) -> Formula|
     -> (SystemEncoding, Formula) {
        let mut vars = VarTable::new();
        let mut automata = BTreeMap::new();
        let mut ids = Vec::new();
        for (name, regex) in specs {
            let v = vars.intern(name);
            automata.insert(v, Regex::parse(regex).unwrap().compile());
            ids.push(v);
        }
        let mut pool = VarPool::new();
        let encoding = SystemEncoder::new(&automata, &vars).encode(&constraints(&ids), &mut pool);
        let extra = extra(&encoding, &ids);
        (encoding, extra)
    };
    let mut out = Vec::new();
    {
        let (encoding, extra) = build(
            &[("x", "a|b"), ("y", "a"), ("z", "a")],
            &|ids| {
                vec![
                    PositionConstraint::diseq(vec![ids[0]], vec![ids[1]]),
                    PositionConstraint::diseq(vec![ids[0]], vec![ids[2]]),
                ]
            },
            &|_, _| Formula::True,
        );
        out.push(CegarInstance {
            name: "k2-diseq-sat",
            encoding,
            extra,
        });
    }
    {
        let (encoding, extra) = build(
            &[("x", "a*"), ("y", "b*")],
            &|ids| {
                vec![PositionConstraint::diseq(
                    vec![ids[0], ids[1]],
                    vec![ids[1], ids[0]],
                )]
            },
            &|_, _| Formula::True,
        );
        out.push(CegarInstance {
            name: "xy-yx-two-letters-sat",
            encoding,
            extra,
        });
    }
    {
        let (encoding, extra) = build(
            &[("x", "(ab)*"), ("y", "(ac)*")],
            &|ids| vec![PositionConstraint::diseq(vec![ids[0]], vec![ids[1]])],
            &|encoding, ids| {
                Formula::and(vec![
                    Formula::eq(encoding.length_of(ids[0]), encoding.length_of(ids[1])),
                    Formula::ge(encoding.length_of(ids[0]), LinExpr::constant(2)),
                ])
            },
        );
        out.push(CegarInstance {
            name: "diseq-eqlen-mismatch-sat",
            encoding,
            extra,
        });
    }
    out
}

/// The verdict a family's name states (`…-sat` / `…-unsat`).
fn named_verdict(name: &str) -> &'static str {
    if name.ends_with("-unsat") {
        "unsat"
    } else {
        assert!(name.ends_with("-sat"), "family {name} names no verdict");
        "sat"
    }
}

/// Telemetry of one CEGAR run.
struct CegarRun {
    /// The loop's last verdict, after the forced blocks.
    final_verdict: &'static str,
    /// The instance's own verdict: the first one the loop reached (a
    /// connected model, unsat or unknown) before any forced block.
    instance_verdict: &'static str,
    rounds: usize,
    conflicts: u64,
    /// Learned clauses alive at the start of each round.
    learned_carried: Vec<u64>,
    wall: Duration,
}

/// Drives the connectivity-cut loop plus `forced_blocks` model-blocking
/// rounds (the shape of the `¬contains` instantiation loop) on one
/// persistent incremental session.
fn run_cegar(instance: &CegarInstance, forced_blocks: usize) -> CegarRun {
    let start = Instant::now();
    let conflicts_before = posr_lia::global_stats().conflicts;
    let mut session = IncrementalSolver::new();
    session.assert_formula(&Formula::and(vec![
        instance.encoding.formula.clone(),
        instance.extra.clone(),
    ]));
    let mut run = CegarRun {
        final_verdict: "none",
        instance_verdict: "none",
        rounds: 0,
        conflicts: 0,
        learned_carried: Vec::new(),
        wall: Duration::ZERO,
    };
    let mut blocks_left = forced_blocks;
    // flow arrows from each refinement to the round it triggers: started
    // where the cut/block is created, ended inside the next round's span,
    // so Perfetto draws the cause→effect arrow across the CEGAR loop
    let mut pending_flows: Vec<u64> = Vec::new();
    for _ in 0..32 {
        run.learned_carried.push(session.stats().learned_live);
        run.rounds += 1;
        let result = {
            let _round = posr_obs::span("bench", format!("cegar.round:{}", instance.name));
            for flow in pending_flows.drain(..) {
                posr_obs::flow_end("bench", "cegar.refine", flow);
            }
            session.solve()
        };
        let status = match &result {
            SolverResult::Sat(_) => "sat",
            SolverResult::Unsat => "unsat",
            SolverResult::Unknown(_) => "unknown",
        };
        run.final_verdict = status;
        let SolverResult::Sat(model) = result else {
            if run.instance_verdict == "none" {
                run.instance_verdict = status;
            }
            break;
        };
        let refinement = match instance.encoding.extract_assignment(&model) {
            None => match instance.encoding.connectivity_cut(&model) {
                Some(cut) => cut,
                None => break,
            },
            Some(_) => {
                if run.instance_verdict == "none" {
                    run.instance_verdict = "sat";
                }
                if blocks_left == 0 {
                    break;
                }
                // connected model: block its Parikh image to force a
                // genuine post-cut re-solve, CEGAR-style
                blocks_left -= 1;
                let parikh = instance.encoding.parikh.as_ref().expect("loopy instance");
                Formula::or(
                    parikh
                        .trans_vars
                        .iter()
                        .map(|&tv| {
                            Formula::ne(LinExpr::var(tv), LinExpr::constant(model.value(tv)))
                        })
                        .collect(),
                )
            }
        };
        let flow = posr_obs::flow_id();
        posr_obs::flow_start("bench", "cegar.refine", flow);
        pending_flows.push(flow);
        session.assert_formula(&refinement);
    }
    run.wall = start.elapsed();
    run.conflicts = posr_lia::global_stats().conflicts - conflicts_before;
    run
}

/// Runs every CEGAR instance; returns the markdown report and whether each
/// instance reached its named verdict and carried lemmas everywhere.
fn cegar_table() -> (String, bool) {
    let mut report = String::new();
    let _ = writeln!(report, "# CEGAR loops on one incremental session");
    let _ = writeln!(report);
    let _ = writeln!(
        report,
        "Each instance runs its connectivity-cut loop plus two forced \
         model-blocking rounds (the `¬contains` CEGAR shape).  The instance \
         verdict is the first one the loop reaches before any forced block; \
         the final verdict is what the blocks leave.  `carried` is the \
         number of learned clauses alive at the start of each round — `0` \
         everywhere would mean the session re-derives its conflicts from \
         scratch."
    );
    let _ = writeln!(report);
    let _ = writeln!(
        report,
        "| instance | instance verdict | final verdict | rounds | conflicts | wall | carried per round |"
    );
    let _ = writeln!(report, "|---|---|---|---|---|---|---|");
    let mut all_ok = true;
    for instance in cegar_instances() {
        let run = run_cegar(&instance, 2);
        let verdict_ok = run.instance_verdict == named_verdict(instance.name);
        // every re-solve after the first round must start with lemmas
        let carried_ok = run.rounds > 1 && run.learned_carried[1..].iter().all(|&c| c > 0);
        all_ok &= verdict_ok && carried_ok;
        let _ = writeln!(
            report,
            "| {} | {}{} | {} | {} | {} | {:.2?} | {:?}{} |",
            instance.name,
            run.instance_verdict,
            if verdict_ok { "" } else { " ❌" },
            run.final_verdict,
            run.rounds,
            run.conflicts,
            run.wall,
            run.learned_carried,
            if carried_ok { "" } else { " ❌" },
        );
    }
    let _ = writeln!(report);
    let _ = writeln!(
        report,
        "{}",
        if all_ok {
            "Every instance reached its named verdict and every post-cut re-solve retained learned clauses."
        } else {
            "MISMATCH: an instance verdict contradicts its name or a re-solve started without lemmas."
        }
    );
    (report, all_ok)
}

/// Engine counters of one BENCH_lia run, as deltas of the process-wide
/// cumulative stats around the solve (the runs are sequential, so the
/// deltas are exact).
struct LiaMetrics {
    /// The loop's final verdict (for the CEGAR families, after the forced
    /// blocks).
    verdict: &'static str,
    /// The instance's own verdict (for the CEGAR families, the first one
    /// reached before any forced block; otherwise `verdict`).
    instance_verdict: &'static str,
    wall: Duration,
    stats: posr_lia::SolverStats,
}

impl LiaMetrics {
    /// Bound + GCD + simplex + final checks: "how often was the theory
    /// layer invoked".
    fn theory_checks(&self) -> u64 {
        self.stats.bound_checks
            + self.stats.gcd_checks
            + self.stats.simplex_checks
            + self.stats.final_checks
    }

    fn json(&self) -> String {
        let s = &self.stats;
        format!(
            "{{\"verdict\":\"{}\",\"instance_verdict\":\"{}\",\"wall_ms\":{:.3},\"conflicts\":{},\"decisions\":{},\"propagations\":{},\"bound_checks\":{},\"gcd_checks\":{},\"simplex_checks\":{},\"final_checks\":{},\"theory_checks\":{},\"theory_props\":{},\"simplex_pivots\":{},\"row_touches\":{},\"learned\":{}}}",
            self.verdict,
            self.instance_verdict,
            self.wall.as_secs_f64() * 1e3,
            s.conflicts,
            s.decisions,
            s.propagations,
            s.bound_checks,
            s.gcd_checks,
            s.simplex_checks,
            s.final_checks,
            self.theory_checks(),
            s.theory_props,
            s.simplex_pivots,
            s.row_touches,
            s.learned_total,
        )
    }
}

/// Coarse per-phase self-time columns of one solve, folded from the
/// `posr-obs` spans it recorded: string-level decomposition, the LIA
/// encoding, CDCL search (self time, theory calls excluded), the simplex
/// theory solver, and proof-sink serialization.
struct PhaseBreakdown {
    decomposition_ms: f64,
    encoding_ms: f64,
    cdcl_ms: f64,
    simplex_ms: f64,
    proof_ms: f64,
}

impl PhaseBreakdown {
    fn from_tracks(tracks: &[posr_obs::TrackSnapshot]) -> PhaseBreakdown {
        let phases = posr_obs::phase_totals(tracks);
        let ms = |names: &[&str]| posr_obs::self_time_of(&phases, names) as f64 / 1e3;
        PhaseBreakdown {
            decomposition_ms: ms(&["normalize", "decompose"]),
            encoding_ms: ms(&["encode"]),
            cdcl_ms: ms(&["cdcl.solve"]),
            simplex_ms: ms(&["simplex.check", "simplex.pivot-session"]),
            proof_ms: ms(&["proof.sink"]),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"decomposition_ms\":{:.3},\"encoding_ms\":{:.3},\"cdcl_ms\":{:.3},\"simplex_ms\":{:.3},\"proof_ms\":{:.3}}}",
            self.decomposition_ms, self.encoding_ms, self.cdcl_ms, self.simplex_ms, self.proof_ms,
        )
    }
}

/// The tracing overhead guard: best-of-N flagship-set wall time with span
/// recording enabled vs disabled, interleaved to share thermal/cache
/// conditions.  Minimums, not medians — scheduler noise only ever *adds*
/// time, so the minimum is the least contaminated estimate of each
/// configuration's true cost.  The enabled minimum must stay within
/// `OVERHEAD_LIMIT` (plus a small absolute allowance — the flagship
/// solves are millisecond-scale, where a pure ratio would gate on noise).
struct OverheadGuard {
    off_ms: f64,
    on_ms: f64,
    ratio: f64,
    ok: bool,
}

/// Maximum tolerated enabled/disabled wall ratio.
const OVERHEAD_LIMIT: f64 = 1.03;

/// Absolute slack added to the ratio gate, seconds.
const OVERHEAD_SLACK: f64 = 0.010;

fn tracing_overhead() -> OverheadGuard {
    fn flagship_wall() -> f64 {
        let mut total = Duration::ZERO;
        for (_, formula, _) in flagship_instances() {
            let (_, elapsed) = solve_flagship(&formula);
            total += elapsed;
        }
        total.as_secs_f64()
    }
    // measure with the whole flight recorder live, as a production
    // POSR_BLACKBOX_DIR run would have it: histograms and progress gauges
    // record unconditionally inside the solves, and a watchdog stays armed
    // (sleeping on its condvar; the deadline is far beyond the guard's
    // runtime, so it never fires and never writes a dump)
    let blackbox_dir =
        std::env::var("POSR_BLACKBOX_DIR").unwrap_or_else(|_| "target/blackbox".to_string());
    let _watchdog =
        posr_obs::Watchdog::arm_in("overhead-guard", Duration::from_secs(3600), blackbox_dir);
    let was_enabled = posr_obs::enabled();
    let mut off = f64::INFINITY;
    let mut on = f64::INFINITY;
    for _ in 0..5 {
        posr_obs::set_enabled(false);
        off = off.min(flagship_wall());
        posr_obs::set_enabled(true);
        on = on.min(flagship_wall());
        // guard runs are measurement-only; drop their events
        let _ = posr_obs::drain_tracks();
    }
    posr_obs::set_enabled(was_enabled);
    let ratio = on / off.max(f64::EPSILON);
    OverheadGuard {
        off_ms: off * 1e3,
        on_ms: on * 1e3,
        ratio,
        ok: on <= off * OVERHEAD_LIMIT + OVERHEAD_SLACK,
    }
}

/// Runs one flagship (string-level) family.
fn run_flagship_family(formula: &StringFormula) -> LiaMetrics {
    let before = posr_lia::global_stats();
    let (verdict, wall) = solve_flagship(formula);
    LiaMetrics {
        verdict,
        instance_verdict: verdict,
        wall,
        stats: posr_lia::global_stats().since(&before),
    }
}

/// Runs one tagauto CEGAR family (connectivity cuts + two blocking
/// rounds on a persistent session).
fn run_tagauto_family(instance: &CegarInstance) -> LiaMetrics {
    let before = posr_lia::global_stats();
    let run = run_cegar(instance, 2);
    LiaMetrics {
        verdict: run.final_verdict,
        instance_verdict: run.instance_verdict,
        wall: run.wall,
        stats: posr_lia::global_stats().since(&before),
    }
}

/// Runs per family: the first is the measured one, the rest only feed the
/// wall-time percentiles.
const WALL_SAMPLES: usize = 5;

/// `(p50, p99)` of the sampled walls, in milliseconds.  With `n` samples
/// the percentile is the `ceil(p/100·n)`-th smallest — the same convention
/// as [`posr_obs::HistogramSnapshot::percentile`], exact here because the
/// raw samples are kept.
fn wall_percentiles(walls: &mut [Duration]) -> (f64, f64) {
    walls.sort_unstable();
    let pick = |p: f64| {
        let rank = ((p / 100.0) * walls.len() as f64).ceil().max(1.0) as usize;
        walls[rank.min(walls.len()) - 1].as_secs_f64() * 1e3
    };
    (pick(50.0), pick(99.0))
}

/// Flow ids that have both a start (`ph:"s"`) and an end (`ph:"f"`) event
/// in `tracks` — the arrows Perfetto will actually draw.
fn matched_flow_pairs(tracks: &[posr_obs::TrackSnapshot]) -> usize {
    let mut starts = std::collections::BTreeSet::new();
    let mut ends = std::collections::BTreeSet::new();
    for track in tracks {
        for ev in &track.events {
            match ev.kind {
                posr_obs::EventKind::FlowStart => {
                    starts.insert(ev.flow_id);
                }
                posr_obs::EventKind::FlowEnd => {
                    ends.insert(ev.flow_id);
                }
                _ => {}
            }
        }
    }
    starts.intersection(&ends).count()
}

/// The machine-readable LIA perf table: every gated family solved once
/// for its counters (wall time, conflicts, theory checks, propagated
/// theory literals, simplex pivots, row touches) and resampled for its
/// wall-time percentiles.  Returns the JSON document, a human-readable
/// table, and the gate verdict:
///
/// * every family must reach its expected verdict — for the CEGAR
///   families, the instance verdict before any forced block against the
///   one the family's name states, and
/// * every CEGAR family must leave matched refinement flow arrows in its
///   trace.
///
/// Every row additionally carries the per-phase self-time columns of its
/// measured run (decomposition / encoding / CDCL / simplex / proof), folded
/// from the `posr-obs` spans; recording is force-enabled for the duration
/// and the drained snapshots go to `tracks_out` so the caller can still
/// export one whole-run trace.  The document closes with the
/// [`tracing_overhead`] guard.
fn bench_lia(tracks_out: &mut Vec<posr_obs::TrackSnapshot>) -> (String, String, bool, bool) {
    let obs_was_enabled = posr_obs::enabled();
    posr_obs::set_enabled(true);
    let mut captured =
        |run: &mut dyn FnMut() -> LiaMetrics| -> (LiaMetrics, PhaseBreakdown, usize) {
            let metrics = run();
            let tracks = posr_obs::drain_tracks();
            let phases = PhaseBreakdown::from_tracks(&tracks);
            let flow_pairs = matched_flow_pairs(&tracks);
            tracks_out.extend(tracks);
            (metrics, phases, flow_pairs)
        };
    // extra runs feeding only the percentile columns; their events are
    // measurement noise and get dropped
    let resample = |run: &mut dyn FnMut() -> LiaMetrics, first: Duration| -> (f64, f64) {
        let mut walls = vec![first];
        for _ in 1..WALL_SAMPLES {
            walls.push(run().wall);
        }
        let _ = posr_obs::drain_tracks();
        wall_percentiles(&mut walls)
    };
    struct BenchRow {
        name: String,
        expected: &'static str,
        big: bool,
        /// `true` for the tagauto CEGAR-loop families, whose runs must
        /// leave matched refinement flow arrows in the trace.
        cegar: bool,
        full: LiaMetrics,
        phases: PhaseBreakdown,
        wall_p50_ms: f64,
        wall_p99_ms: f64,
        flow_pairs: usize,
    }
    let mut rows: Vec<BenchRow> = Vec::new();
    let string_families = flagship_instances()
        .into_iter()
        .map(|family| (family, false))
        .chain(big_instances().into_iter().map(|family| (family, true)));
    for ((name, formula, expected), big) in string_families {
        let (full, phases, flow_pairs) = captured(&mut || run_flagship_family(&formula));
        let (wall_p50_ms, wall_p99_ms) = resample(&mut || run_flagship_family(&formula), full.wall);
        rows.push(BenchRow {
            name: name.to_string(),
            expected,
            big,
            cegar: false,
            full,
            phases,
            wall_p50_ms,
            wall_p99_ms,
            flow_pairs,
        });
    }
    for instance in cegar_instances() {
        let (full, phases, flow_pairs) = captured(&mut || run_tagauto_family(&instance));
        let (wall_p50_ms, wall_p99_ms) = resample(&mut || run_tagauto_family(&instance), full.wall);
        rows.push(BenchRow {
            name: format!("tagauto-{}", instance.name),
            expected: named_verdict(instance.name),
            big: false,
            cegar: true,
            full,
            phases,
            wall_p50_ms,
            wall_p99_ms,
            flow_pairs,
        });
    }
    posr_obs::set_enabled(obs_was_enabled);

    let mut verdicts_ok = true;
    let mut table = String::new();
    let _ = writeln!(
        table,
        "| family | expected | instance verdict | final verdict | wall | wall p50/p99 ms | conflicts | theory checks | tprops | pivots | row touches | flows | decomp/enc/cdcl/simplex/proof ms |"
    );
    let _ = writeln!(
        table,
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|"
    );
    for row in &rows {
        let BenchRow {
            name,
            expected,
            full,
            phases,
            wall_p50_ms,
            wall_p99_ms,
            flow_pairs,
            ..
        } = row;
        let ok = full.instance_verdict == *expected;
        verdicts_ok &= ok;
        let _ = writeln!(
            table,
            "| {name} | {expected} | {}{} | {} | {:.1?} | {:.1} / {:.1} | {} | {} | {} | {} | {} | {} | {:.1}/{:.1}/{:.1}/{:.1}/{:.1} |",
            full.instance_verdict,
            if ok { "" } else { " ❌" },
            full.verdict,
            full.wall,
            wall_p50_ms,
            wall_p99_ms,
            full.stats.conflicts,
            full.theory_checks(),
            full.stats.theory_props,
            full.stats.simplex_pivots,
            full.stats.row_touches,
            flow_pairs,
            phases.decomposition_ms,
            phases.encoding_ms,
            phases.cdcl_ms,
            phases.simplex_ms,
            phases.proof_ms,
        );
    }
    // every CEGAR-loop family must have left at least one matched
    // refinement flow arrow (start + end with the same id) in its trace
    let flow_ok = rows
        .iter()
        .filter(|row| row.cegar)
        .all(|row| row.flow_pairs >= 1);
    let gate_ok = verdicts_ok && flow_ok;

    println!("measuring tracing overhead (flagship set, 5 interleaved reps)…");
    let overhead = tracing_overhead();
    println!(
        "tracing overhead: disabled {:.2}ms, enabled {:.2}ms, ratio {:.3} (limit {OVERHEAD_LIMIT}) — {}",
        overhead.off_ms,
        overhead.on_ms,
        overhead.ratio,
        if overhead.ok { "ok" } else { "EXCEEDED" },
    );

    let mut json = String::from("{\n  \"schema\": \"posr-bench-lia/v6\",\n  \"families\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\":\"{}\",\"expected\":\"{}\",\"big\":{},\"cegar\":{},\"wall_p50_ms\":{:.3},\"wall_p99_ms\":{:.3},\"flow_pairs\":{},\"full\":{},\"phases\":{}}}{}",
            row.name,
            row.expected,
            row.big,
            row.cegar,
            row.wall_p50_ms,
            row.wall_p99_ms,
            row.flow_pairs,
            row.full.json(),
            row.phases.json(),
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    let _ = writeln!(
        json,
        "  ],\n  \"gate\": {{\"verdicts_ok\":{verdicts_ok},\"cegar_flow_pairs_ok\":{flow_ok},\"ok\":{gate_ok}}},"
    );
    let _ = write!(
        json,
        "  \"tracing_overhead\": {{\"disabled_ms\":{:.3},\"enabled_ms\":{:.3},\"ratio\":{:.4},\"limit\":{OVERHEAD_LIMIT},\"ok\":{}}}\n}}\n",
        overhead.off_ms, overhead.on_ms, overhead.ratio, overhead.ok,
    );
    (json, table, gate_ok, overhead.ok)
}

fn main() {
    // POSR_TRACE=chrome:PATH / POSR_TRACE_FOLDED=PATH turn the whole run
    // into a trace: sections drain their spans into `all_tracks`, and the
    // accumulated snapshots are flushed to the requested files at the end.
    let env_tracing = posr_obs::init_from_env();
    posr_obs::set_thread_track("ablation");
    let mut all_tracks: Vec<posr_obs::TrackSnapshot> = Vec::new();

    println!("== encoding size: polynomial copy-tag construction vs naive order enumeration ==");
    let mut vars = VarTable::new();
    let names = ["x", "y", "z"];
    let regexes = ["(ab)*", "(ac)*", "(ad)*"];
    let mut automata = BTreeMap::new();
    let ids: Vec<_> = names
        .iter()
        .zip(regexes.iter())
        .map(|(n, r)| {
            let v = vars.intern(n);
            automata.insert(v, Regex::parse(r).unwrap().compile());
            v
        })
        .collect();
    for k in 1..=3usize {
        let constraints: Vec<PositionConstraint> = (0..k)
            .map(|i| PositionConstraint::diseq(vec![ids[i % 3]], vec![ids[(i + 1) % 3]]))
            .collect();
        let mut pool = VarPool::new();
        let polynomial = SystemEncoder::new(&automata, &vars).encode(&constraints, &mut pool);
        let poly_size = polynomial.formula.size();
        if k <= 2 {
            let (mut pool2, no_deadline) = (VarPool::new(), CancelToken::none());
            let naive = encode_naive(&constraints, &automata, &vars, &mut pool2, &no_deadline)
                .expect("no deadline");
            println!(
                "K={k}: polynomial formula size {poly_size:>8}, naive ({} orders) total size {:>10}",
                naive.per_order.len(),
                naive.total_formula_size
            );
        } else {
            println!("K={k}: polynomial formula size {poly_size:>8}, naive: 720 orders (skipped)");
        }
    }

    println!();
    println!(
        "== single disequality: PTime one-counter procedure vs the system encoding at K = 1 =="
    );
    for (rx, ry) in [("(ab)*", "(ac)*"), ("(abc)*", "(acb)*"), ("a*", "a*")] {
        let mut vars = VarTable::new();
        let x = vars.intern("x");
        let y = vars.intern("y");
        let mut automata = BTreeMap::new();
        automata.insert(x, Regex::parse(rx).unwrap().compile());
        automata.insert(y, Regex::parse(ry).unwrap().compile());

        let start = Instant::now();
        let oca_answer = if single_diseq_satisfiable(&[x], &[y], &automata) {
            "sat"
        } else {
            "unsat"
        };
        let oca_time = start.elapsed();

        // the path production runs: the encoding solved by the shared
        // connectivity-cut loop
        let start = Instant::now();
        let mut pool = VarPool::new();
        let encoding = SystemEncoder::new(&automata, &vars)
            .encode(&[PositionConstraint::diseq(vec![x], vec![y])], &mut pool);
        let mut session = IncrementalSolver::new();
        session.assert_formula(&encoding.formula);
        let lia_answer = match CutLoop::new(&encoding, CancelToken::none()).solve(&mut session) {
            Connected::Sat(..) => "sat",
            Connected::Unsat => "unsat",
            Connected::Unknown(_) => "unknown",
        };
        let lia_time = start.elapsed();

        println!(
            "x ∈ {rx:8} y ∈ {ry:8}: one-counter {oca_answer} in {oca_time:?}, system encoding {lia_answer} in {lia_time:?} (formula size {})",
            encoding.formula.size()
        );
    }

    println!();
    println!("== Flagship set: CDCL(T) verdicts ==");
    let (report, all_ok) = flagship_table();
    println!("{report}");
    let path = std::env::var("POSR_ABLATION_REPORT")
        .unwrap_or_else(|_| "target/ablation-report.md".to_string());
    if let Some(parent) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&path, &report) {
        Ok(()) => println!("report written to {path}"),
        Err(e) => eprintln!("could not write report to {path}: {e}"),
    }

    println!();
    println!("== CEGAR loops on one incremental session ==");
    let (cegar_report, cegar_ok) = cegar_table();
    println!("{cegar_report}");
    let cegar_path = std::env::var("POSR_ABLATION_INCREMENTAL")
        .unwrap_or_else(|_| "target/ablation-incremental.md".to_string());
    if let Some(parent) = std::path::Path::new(&cegar_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&cegar_path, &cegar_report) {
        Ok(()) => println!("report written to {cegar_path}"),
        Err(e) => eprintln!("could not write report to {cegar_path}: {e}"),
    }

    println!();
    println!("== BENCH_lia: LIA counters per family ==");
    all_tracks.extend(posr_obs::drain_tracks());
    let (bench_json, bench_table, bench_ok, overhead_ok) = bench_lia(&mut all_tracks);
    println!("{bench_table}");
    let bench_path =
        std::env::var("POSR_BENCH_LIA").unwrap_or_else(|_| "target/BENCH_lia.json".to_string());
    if let Some(parent) = std::path::Path::new(&bench_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&bench_path, &bench_json) {
        Ok(()) => println!("machine-readable report written to {bench_path}"),
        Err(e) => eprintln!("could not write report to {bench_path}: {e}"),
    }

    if env_tracing {
        // race two lanes over the flagship set so the exported trace has
        // one timeline per lane (plus the bench sections above): `cdcl-pos`
        // runs on this thread's track, enumeration on a `lane:` track
        println!();
        println!("== traced portfolio race over the flagship set ==");
        let portfolio = posr_portfolio::PortfolioSolver::with_strategies(vec![
            std::sync::Arc::new(posr_portfolio::CdclPosStrategy),
            std::sync::Arc::new(posr_core::baselines::EnumerationSolver),
        ]);
        for (name, formula, expected) in flagship_instances() {
            let _section = posr_obs::span("ablation", format!("race:{name}"));
            let answer = portfolio.solve(&formula);
            println!("{name}: {} (expected {expected})", answer_status(&answer));
        }
        all_tracks.extend(posr_obs::drain_tracks());
        match posr_obs::flush_env_trace_tracks(&all_tracks) {
            Ok(Some(path)) => println!("chrome trace written to {path}"),
            Ok(None) => {}
            Err(e) => eprintln!("could not write trace: {e}"),
        }
    }

    if !all_ok {
        eprintln!("FAIL: the CDCL engine missed an expected verdict");
        std::process::exit(1);
    }
    if !cegar_ok {
        eprintln!("FAIL: a CEGAR instance missed its named verdict or re-solved without lemmas");
        std::process::exit(1);
    }
    if !bench_ok {
        eprintln!(
            "FAIL: BENCH_lia gate — a family missed its expected verdict, or a \
             CEGAR family's trace carries no matched refinement flow arrows"
        );
        std::process::exit(1);
    }
    if !overhead_ok {
        eprintln!(
            "FAIL: tracing overhead gate — the flagship set with span recording \
             enabled ran more than {OVERHEAD_LIMIT}x (+{OVERHEAD_SLACK}s slack) \
             the disabled wall time"
        );
        std::process::exit(1);
    }
}
