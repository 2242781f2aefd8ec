//! Bounded enumeration and random sampling of accepted words.
//!
//! These utilities back the *enumeration baseline* (guess-and-check solving,
//! standing in for the behaviour the paper attributes to cvc5 on satisfiable
//! position constraints), the position procedure's short-witness sampling
//! and the randomised property tests of the decision procedure.  A
//! [`Sampler`] prepares its automaton once (ε-removal, trimming, distances to
//! a final state), so a caller that draws many words pays for that once.

use rand::prelude::*;

use crate::nfa::{symbols_to_string, Nfa, StateId, Symbol, Transition};

/// Enumerates all accepted words of length at most `max_len`, in
/// length-lexicographic order, up to `limit` words.
pub fn enumerate_words(nfa: &Nfa, max_len: usize, limit: usize) -> Vec<String> {
    let nfa = nfa.remove_epsilon();
    let mut out = Vec::new();
    // BFS over (state-set, word) frontier per length
    let mut frontier: Vec<(std::collections::BTreeSet<StateId>, Vec<Symbol>)> =
        vec![(nfa.initial_states().clone(), Vec::new())];
    let alphabet = nfa.alphabet();
    for len in 0..=max_len {
        for (states, word) in &frontier {
            debug_assert_eq!(word.len(), len);
            if states.iter().any(|q| nfa.is_final(*q)) {
                out.push(symbols_to_string(word));
                if out.len() >= limit {
                    return out;
                }
            }
        }
        if len == max_len {
            break;
        }
        let mut next = Vec::new();
        for (states, word) in &frontier {
            for &a in &alphabet {
                let post = nfa.post(states, a);
                if post.is_empty() {
                    continue;
                }
                let mut w = word.clone();
                w.push(a);
                next.push((post, w));
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    out
}

/// Returns the (length-lexicographically) shortest accepted word, if the
/// language is non-empty.
pub fn shortest_word(nfa: &Nfa) -> Option<Vec<Symbol>> {
    shortest_in(&nfa.remove_epsilon())
}

/// [`shortest_word`] of an ε-free automaton.
fn shortest_in(nfa: &Nfa) -> Option<Vec<Symbol>> {
    use std::collections::{HashMap, VecDeque};
    let mut pred: HashMap<StateId, (StateId, Symbol)> = HashMap::new();
    let mut queue: VecDeque<StateId> = VecDeque::new();
    let mut seen: std::collections::HashSet<StateId> = std::collections::HashSet::new();
    for &q in nfa.initial_states() {
        queue.push_back(q);
        seen.insert(q);
    }
    let mut goal = None;
    while let Some(q) = queue.pop_front() {
        if nfa.is_final(q) {
            goal = Some(q);
            break;
        }
        let mut outgoing: Vec<_> = nfa.transitions_from(q).collect();
        outgoing.sort_by_key(|t| t.symbol);
        for t in outgoing {
            if seen.insert(t.target) {
                pred.insert(t.target, (q, t.symbol));
                queue.push_back(t.target);
            }
        }
    }
    let mut q = goal?;
    let mut word = Vec::new();
    while let Some(&(p, a)) = pred.get(&q) {
        word.push(a);
        q = p;
    }
    word.reverse();
    Some(word)
}

/// An automaton prepared once for drawing many random words: ε-free and
/// trimmed, with each state's outgoing transitions and its distance to a
/// final state.
pub struct Sampler {
    nfa: Nfa,
    /// Outgoing transitions per state, in the automaton's transition order.
    succ: Vec<Vec<Transition>>,
    /// Shortest distance to a final state per state (`usize::MAX` if none).
    dist: Vec<usize>,
    empty: bool,
}

impl Sampler {
    /// Prepares `nfa` for sampling.
    pub fn new(nfa: &Nfa) -> Sampler {
        let nfa = nfa.remove_epsilon().trim();
        let mut succ = vec![Vec::new(); nfa.num_states()];
        let mut pred = vec![Vec::new(); nfa.num_states()];
        for t in nfa.transitions() {
            succ[t.source.index()].push(*t);
            pred[t.target.index()].push(t.source);
        }
        // distance-to-final per state, for pruning walks that cannot finish in time
        let mut dist = vec![usize::MAX; nfa.num_states()];
        let mut queue = std::collections::VecDeque::new();
        for &q in nfa.final_states() {
            dist[q.index()] = 0;
            queue.push_back(q);
        }
        while let Some(q) = queue.pop_front() {
            for &p in &pred[q.index()] {
                if dist[p.index()] == usize::MAX {
                    dist[p.index()] = dist[q.index()] + 1;
                    queue.push_back(p);
                }
            }
        }
        let empty = nfa.is_empty_language();
        Sampler {
            nfa,
            succ,
            dist,
            empty,
        }
    }

    /// Draws a random accepted word of length at most `max_len` by a random
    /// walk that is biased towards states from which a final state is still
    /// reachable.  Returns `None` if no accepted word of length `<= max_len`
    /// exists.
    pub fn sample<R: Rng + ?Sized>(&self, max_len: usize, rng: &mut R) -> Option<Vec<Symbol>> {
        if self.empty {
            return None;
        }
        let dist = &self.dist;
        for _attempt in 0..64 {
            let starts: Vec<StateId> = self
                .nfa
                .initial_states()
                .iter()
                .copied()
                .filter(|q| dist[q.index()] <= max_len)
                .collect();
            if starts.is_empty() {
                return None;
            }
            let mut state = *starts.choose(rng).expect("non-empty");
            let mut word = Vec::new();
            loop {
                let may_stop = self.nfa.is_final(state);
                let continue_prob = if word.len() >= max_len { 0.0 } else { 0.7 };
                if may_stop && (!rng.gen_bool(continue_prob) || word.len() >= max_len) {
                    return Some(word);
                }
                let options: Vec<_> = self.succ[state.index()]
                    .iter()
                    .filter(|t| {
                        dist[t.target.index()] != usize::MAX
                            && dist[t.target.index()] + word.len() < max_len
                    })
                    .collect();
                match options.choose(rng) {
                    None => {
                        if may_stop {
                            return Some(word);
                        }
                        break; // dead end, retry
                    }
                    Some(t) => {
                        word.push(t.symbol);
                        state = t.target;
                    }
                }
            }
        }
        // fall back to the shortest word if the random walk kept failing
        shortest_in(&self.nfa).filter(|w| w.len() <= max_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn enumerate_small_language() {
        let nfa = Regex::parse("(ab)*").unwrap().compile();
        let words = enumerate_words(&nfa, 6, 100);
        assert_eq!(words, vec!["", "ab", "abab", "ababab"]);
    }

    #[test]
    fn enumerate_respects_limit() {
        let nfa = Regex::parse("[ab]*").unwrap().compile();
        let words = enumerate_words(&nfa, 10, 5);
        assert_eq!(words.len(), 5);
    }

    #[test]
    fn shortest_word_of_nonempty_language() {
        let nfa = Regex::parse("(ab)+c").unwrap().compile();
        let w = shortest_word(&nfa).expect("non-empty");
        assert_eq!(symbols_to_string(&w), "abc");
    }

    #[test]
    fn shortest_word_of_empty_language_is_none() {
        assert!(shortest_word(&Nfa::empty_language()).is_none());
    }

    #[test]
    fn sampled_words_are_accepted() {
        let nfa = Regex::parse("(ab|cd)*e").unwrap().compile();
        let sampler = Sampler::new(&nfa);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let w = sampler.sample(12, &mut rng).expect("sample");
            assert!(nfa.accepts(&w), "sampled word must be accepted");
            assert!(w.len() <= 12);
        }
    }

    #[test]
    fn sample_none_when_too_short() {
        let sampler = Sampler::new(&Regex::parse("aaaaa").unwrap().compile());
        let mut rng = StdRng::seed_from_u64(7);
        assert!(sampler.sample(3, &mut rng).is_none());
        assert!(sampler.sample(5, &mut rng).is_some());
    }
}
