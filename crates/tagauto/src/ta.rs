//! Tag automata (Sec. 4): NFAs whose transitions are labelled by sets of
//! tags, the `LenTag` decoration of an NFA, and the ε-concatenation `A∘`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use posr_automata::Nfa;

use crate::tags::{StrVar, Tag, VarTable};

/// A transition of a tag automaton: `source --{tags}--> target`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TaTransition {
    /// Source state.
    pub source: usize,
    /// The set of tags on the transition (possibly empty, e.g. for the
    /// ε-connections between variable blocks).
    pub tags: BTreeSet<Tag>,
    /// Target state.
    pub target: usize,
}

/// A tag automaton `T = (Q, Δ, I, F)` over the tag vocabulary of
/// [`crate::tags::Tag`].
#[derive(Clone, Debug, Default)]
pub struct TagAutomaton {
    num_states: usize,
    transitions: Vec<TaTransition>,
    initial: BTreeSet<usize>,
    finals: BTreeSet<usize>,
}

impl TagAutomaton {
    /// Creates an empty tag automaton.
    pub fn new() -> TagAutomaton {
        TagAutomaton::default()
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> usize {
        self.num_states += 1;
        self.num_states - 1
    }

    /// Adds `n` fresh states, returning the index of the first.
    pub fn add_states(&mut self, n: usize) -> usize {
        let first = self.num_states;
        self.num_states += n;
        first
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Size measure `|Q| + |Δ|`.
    pub fn size(&self) -> usize {
        self.num_states + self.transitions.len()
    }

    /// Marks a state initial.
    ///
    /// # Panics
    /// Panics if the state is out of bounds.
    pub fn add_initial(&mut self, q: usize) {
        assert!(q < self.num_states);
        self.initial.insert(q);
    }

    /// Marks a state final.
    ///
    /// # Panics
    /// Panics if the state is out of bounds.
    pub fn add_final(&mut self, q: usize) {
        assert!(q < self.num_states);
        self.finals.insert(q);
    }

    /// Adds a transition.
    ///
    /// # Panics
    /// Panics if either state is out of bounds.
    pub fn add_transition<I: IntoIterator<Item = Tag>>(
        &mut self,
        source: usize,
        tags: I,
        target: usize,
    ) {
        assert!(source < self.num_states && target < self.num_states);
        self.transitions.push(TaTransition {
            source,
            tags: tags.into_iter().collect(),
            target,
        });
    }

    /// The transition table.
    pub fn transitions(&self) -> &[TaTransition] {
        &self.transitions
    }

    /// Initial states.
    pub fn initial_states(&self) -> &BTreeSet<usize> {
        &self.initial
    }

    /// Final states.
    pub fn final_states(&self) -> &BTreeSet<usize> {
        &self.finals
    }

    /// Returns `true` if `q` is final.
    pub fn is_final(&self, q: usize) -> bool {
        self.finals.contains(&q)
    }

    /// All tags occurring on some transition.
    pub fn tag_alphabet(&self) -> BTreeSet<Tag> {
        self.transitions
            .iter()
            .flat_map(|t| t.tags.iter().copied())
            .collect()
    }

    /// `true` if the transition graph has no cycle.  Acyclic automata accept
    /// only finitely many runs, and a unit flow over a DAG takes every
    /// transition at most once — the Parikh encoding exploits this with
    /// per-transition upper bounds.
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm: the graph is acyclic iff every state drains
        let mut indegree = vec![0usize; self.num_states];
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); self.num_states];
        for t in &self.transitions {
            indegree[t.target] += 1;
            successors[t.source].push(t.target);
        }
        let mut queue: Vec<usize> = (0..self.num_states).filter(|&q| indegree[q] == 0).collect();
        let mut drained = 0usize;
        while let Some(q) = queue.pop() {
            drained += 1;
            for &target in &successors[q] {
                indegree[target] -= 1;
                if indegree[target] == 0 {
                    queue.push(target);
                }
            }
        }
        drained == self.num_states
    }

    /// Renders the automaton with variable names from a table (debugging).
    pub fn display<'a>(&'a self, vars: &'a VarTable) -> impl fmt::Display + 'a {
        struct D<'a>(&'a TagAutomaton, &'a VarTable);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                writeln!(
                    f,
                    "TA: {} states, {} transitions, I={:?}, F={:?}",
                    self.0.num_states,
                    self.0.transitions.len(),
                    self.0.initial,
                    self.0.finals
                )?;
                for t in &self.0.transitions {
                    write!(f, "  q{} --{{", t.source)?;
                    for (i, tag) in t.tags.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{}", tag.display(self.1))?;
                    }
                    writeln!(f, "}}--> q{}", t.target)?;
                }
                Ok(())
            }
        }
        D(self, vars)
    }
}

/// The `LenTag_x(A)` construction (Sec. 4): every transition of the NFA `A`
/// reading symbol `a` becomes a tag transition with tags `{⟨S,a⟩, ⟨L,x⟩}`.
///
/// # Panics
/// Panics if `A` contains ε-transitions (remove them first).
pub fn len_tag(nfa: &Nfa, var: StrVar) -> TagAutomaton {
    assert!(!nfa.has_epsilon(), "LenTag requires an ε-free NFA");
    let mut ta = TagAutomaton::new();
    ta.add_states(nfa.num_states());
    for &q in nfa.initial_states() {
        ta.add_initial(q.index());
    }
    for &q in nfa.final_states() {
        ta.add_final(q.index());
    }
    for t in nfa.transitions() {
        ta.add_transition(
            t.source.index(),
            [Tag::Symbol(t.symbol), Tag::Length(var)],
            t.target.index(),
        );
    }
    ta
}

/// Description of one variable block inside an ε-concatenation `A∘`.
#[derive(Clone, Debug)]
pub struct VariableBlock {
    /// The variable whose automaton occupies this block.
    pub var: StrVar,
    /// First state index of the block in the concatenated automaton.
    pub state_offset: usize,
    /// Number of states of the block.
    pub num_states: usize,
}

/// The ε-concatenation `A∘` of the `LenTag` automata of a list of variables,
/// in the given order (Sec. 5.2 fixes an arbitrary linear order `≼` on the
/// variables; the order of `blocks` is that order).
#[derive(Clone, Debug)]
pub struct Concatenation {
    /// The concatenated tag automaton.
    pub ta: TagAutomaton,
    /// Per-variable block layout, in concatenation order.
    pub blocks: Vec<VariableBlock>,
}

impl Concatenation {
    /// The position of a variable in the concatenation order `≼`.
    pub fn order_index(&self, var: StrVar) -> Option<usize> {
        self.blocks.iter().position(|b| b.var == var)
    }

    /// Returns `true` if `a ≺ b` in the concatenation order.
    pub fn precedes(&self, a: StrVar, b: StrVar) -> bool {
        match (self.order_index(a), self.order_index(b)) {
            (Some(i), Some(j)) => i < j,
            _ => false,
        }
    }

    /// The block of a variable.
    pub fn block(&self, var: StrVar) -> Option<&VariableBlock> {
        self.blocks.iter().find(|b| b.var == var)
    }

    /// The variables in concatenation order.
    pub fn variables(&self) -> Vec<StrVar> {
        self.blocks.iter().map(|b| b.var).collect()
    }
}

/// Builds the ε-concatenation `A∘` of `LenTag_x(Aut(x))` for the given
/// variables, in the given order.  Consecutive blocks are connected by
/// untagged (ε) transitions from the final states of one block to the initial
/// states of the next; the initial states of the first block are initial and
/// the final states of the last block are final.
///
/// # Panics
/// Panics if `vars` is empty, if a variable has no automaton in `automata`,
/// or if an automaton contains ε-transitions.
pub fn concatenate(vars: &[StrVar], automata: &BTreeMap<StrVar, Nfa>) -> Concatenation {
    assert!(
        !vars.is_empty(),
        "cannot concatenate an empty list of variables"
    );
    let mut ta = TagAutomaton::new();
    let mut blocks = Vec::new();
    let mut prev_finals: Vec<usize> = Vec::new();
    for (idx, &var) in vars.iter().enumerate() {
        let nfa = automata
            .get(&var)
            .unwrap_or_else(|| panic!("no automaton registered for variable {var}"));
        assert!(!nfa.has_epsilon(), "concatenate requires ε-free automata");
        let offset = ta.add_states(nfa.num_states());
        blocks.push(VariableBlock {
            var,
            state_offset: offset,
            num_states: nfa.num_states(),
        });
        for t in nfa.transitions() {
            ta.add_transition(
                offset + t.source.index(),
                [Tag::Symbol(t.symbol), Tag::Length(var)],
                offset + t.target.index(),
            );
        }
        let initials: Vec<usize> = nfa
            .initial_states()
            .iter()
            .map(|q| offset + q.index())
            .collect();
        let finals: Vec<usize> = nfa
            .final_states()
            .iter()
            .map(|q| offset + q.index())
            .collect();
        if idx == 0 {
            for &q in &initials {
                ta.add_initial(q);
            }
        } else {
            for &from in &prev_finals {
                for &to in &initials {
                    ta.add_transition(from, [], to);
                }
            }
        }
        if idx == vars.len() - 1 {
            for &q in &finals {
                ta.add_final(q);
            }
        }
        prev_finals = finals;
    }
    Concatenation { ta, blocks }
}

/// Maps a state of an ε-concatenation back to the variable owning it.
pub fn owning_variable(concat: &Concatenation, state: usize) -> Option<StrVar> {
    concat
        .blocks
        .iter()
        .find(|b| state >= b.state_offset && state < b.state_offset + b.num_states)
        .map(|b| b.var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use posr_automata::Regex;

    fn vartable_xy() -> (VarTable, StrVar, StrVar) {
        let mut vars = VarTable::new();
        let x = vars.intern("x");
        let y = vars.intern("y");
        (vars, x, y)
    }

    #[test]
    fn len_tag_decorates_every_transition() {
        let (_, x, _) = vartable_xy();
        let nfa = Regex::parse("(ab)*").unwrap().compile();
        let ta = len_tag(&nfa, x);
        assert_eq!(ta.num_states(), nfa.num_states());
        assert_eq!(ta.num_transitions(), nfa.num_transitions());
        for t in ta.transitions() {
            assert!(t.tags.iter().any(|tag| tag.as_symbol().is_some()));
            assert!(t.tags.contains(&Tag::Length(x)));
            assert_eq!(t.tags.len(), 2);
        }
    }

    #[test]
    fn concatenation_layout_and_order() {
        let (_, x, y) = vartable_xy();
        let mut automata = BTreeMap::new();
        automata.insert(x, Regex::parse("(ab)*").unwrap().compile());
        automata.insert(y, Regex::parse("(ac)*").unwrap().compile());
        let concat = concatenate(&[x, y], &automata);
        assert_eq!(concat.blocks.len(), 2);
        assert!(concat.precedes(x, y));
        assert!(!concat.precedes(y, x));
        assert_eq!(concat.order_index(x), Some(0));
        // the ε connector transitions carry no tags
        let untagged = concat
            .ta
            .transitions()
            .iter()
            .filter(|t| t.tags.is_empty())
            .count();
        assert!(untagged >= 1);
        // every state belongs to some block
        for q in 0..concat.ta.num_states() {
            assert!(owning_variable(&concat, q).is_some());
        }
        // initial states in the first block, final states in the last block
        for &q in concat.ta.initial_states() {
            assert_eq!(owning_variable(&concat, q), Some(x));
        }
        for &q in concat.ta.final_states() {
            assert_eq!(owning_variable(&concat, q), Some(y));
        }
    }

    #[test]
    #[should_panic(expected = "no automaton registered")]
    fn concatenation_requires_all_automata() {
        let (_, x, y) = vartable_xy();
        let mut automata = BTreeMap::new();
        automata.insert(x, Regex::parse("a*").unwrap().compile());
        let _ = concatenate(&[x, y], &automata);
    }

    #[test]
    fn tag_alphabet_collects_tags() {
        let (_, x, _) = vartable_xy();
        let nfa = Regex::parse("ab").unwrap().compile();
        let ta = len_tag(&nfa, x);
        let alphabet = ta.tag_alphabet();
        assert!(alphabet.contains(&Tag::Length(x)));
        assert_eq!(
            alphabet.iter().filter(|t| t.as_symbol().is_some()).count(),
            2
        );
    }

    #[test]
    fn display_renders_transitions() {
        let (vars, x, _) = vartable_xy();
        let nfa = Regex::parse("a").unwrap().compile();
        let ta = len_tag(&nfa, x);
        let text = format!("{}", ta.display(&vars));
        assert!(text.contains("⟨L,x⟩"));
        assert!(text.contains("⟨S,a⟩"));
    }
}
