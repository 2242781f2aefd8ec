//! Input variables whose names look like the normaliser's own
//! (`{prefix}!{n}`): a legal SMT-LIB symbol such as `lit!1` must be
//! solved as the caller's variable, never merged with an internal literal
//! variable, and must stay in the reported model.

use posr_core::ast::{StringFormula, StringTerm};
use posr_core::solver::{Answer, StringSolver};
use posr_smtfmt::{run_script, CommandResponse};

fn assert_validated_sat(formula: &StringFormula, var: &str, value: &str) {
    match StringSolver::new().solve(formula) {
        Answer::Sat(model) => {
            assert!(model.satisfies(formula), "model fails validation");
            assert_eq!(model.string(var), value);
        }
        other => panic!("expected sat, got {other:?}"),
    }
}

fn assert_script_model(script: &str, var: &str, value: &str) {
    let outcome = run_script(script).unwrap();
    assert_eq!(outcome.statuses(), ["sat"]);
    match &outcome.responses[1] {
        CommandResponse::Model(Some(model)) => assert_eq!(model.string(var), value),
        other => panic!("expected a model, got {other:?}"),
    }
}

#[test]
fn input_variable_named_like_a_literal_variable_is_not_merged_with_it() {
    // the literal "ba" becomes a fresh variable; it must not be `lit!1`
    let f = StringFormula::new()
        .in_re("lit!1", "ab")
        .diseq(StringTerm::var("lit!1"), StringTerm::lit("ba"));
    assert_validated_sat(&f, "lit!1", "ab");
    assert_script_model(
        r#"
          (declare-const lit!1 String)
          (assert (str.in_re lit!1 (str.to_re "ab")))
          (assert (not (= lit!1 "ba")))
          (check-sat)
          (get-model)
        "#,
        "lit!1",
        "ab",
    );
}

#[test]
fn input_variable_with_a_bang_stays_in_the_model() {
    let f = StringFormula::new().in_re("x!7", "ab");
    assert_validated_sat(&f, "x!7", "ab");
    assert_script_model(
        r#"
          (declare-const x!7 String)
          (assert (str.in_re x!7 (str.to_re "ab")))
          (check-sat)
          (get-model)
        "#,
        "x!7",
        "ab",
    );
}
