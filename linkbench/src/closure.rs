//! The benchmark's own oracle: the live directed link set it has fed the
//! program, and its transitive closure by breadth-first search. It shares no
//! code with the program under test.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Directed links `(src, dst)` currently live, by node address.
#[derive(Debug, Default, PartialEq)]
pub struct LinkSet(BTreeSet<(u32, u32)>);

impl LinkSet {
    /// Record an inserted link tuple.
    pub fn insert(&mut self, src: u32, dst: u32) {
        self.0.insert((src, dst));
    }

    /// Record a deleted link tuple.
    pub fn remove(&mut self, src: u32, dst: u32) {
        self.0.remove(&(src, dst));
    }

    /// `reachable(u, v)` for every ordered pair over `nodes` addresses
    /// `0..nodes`: `v` is reachable from `u` by a path of at least one live
    /// link (so `u` reaches itself only around a cycle).
    pub fn closure(&self, nodes: u32) -> Closure {
        let mut out: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for &(a, b) in &self.0 {
            out.entry(a).or_default().push(b);
        }
        let n = nodes as usize;
        let mut bits = vec![false; n * n];
        for u in 0..nodes {
            let row = &mut bits[u as usize * n..(u as usize + 1) * n];
            let mut queue: VecDeque<u32> = out.get(&u).into_iter().flatten().copied().collect();
            for &v in &queue {
                row[v as usize] = true;
            }
            while let Some(x) = queue.pop_front() {
                for &y in out.get(&x).into_iter().flatten() {
                    if !row[y as usize] {
                        row[y as usize] = true;
                        queue.push_back(y);
                    }
                }
            }
        }
        Closure { n: nodes, bits }
    }
}

/// A reachability matrix over node addresses `0..n`.
pub struct Closure {
    n: u32,
    bits: Vec<bool>,
}

impl Closure {
    /// Is `v` reachable from `u`?
    pub fn get(&self, u: u32, v: u32) -> bool {
        self.bits[(u * self.n + v) as usize]
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.n
    }

    /// The reachable pairs, ascending.
    pub fn pairs(&self) -> BTreeSet<(u32, u32)> {
        (0..self.n)
            .flat_map(|u| (0..self.n).map(move |v| (u, v)))
            .filter(|&(u, v)| self.get(u, v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Line 0 - 1 - 2 plus an isolated node 3, both directions per link.
    fn line() -> LinkSet {
        let mut l = LinkSet::default();
        for (a, b) in [(0, 1), (1, 2)] {
            l.insert(a, b);
            l.insert(b, a);
        }
        l
    }

    #[test]
    fn bidirectional_line_is_fully_connected_without_the_isolated_node() {
        let c = line().closure(4);
        for u in 0..3 {
            for v in 0..3 {
                assert!(c.get(u, v), "{u} -> {v}");
            }
            assert!(!c.get(u, 3) && !c.get(3, u));
        }
        assert!(!c.get(3, 3), "no cycle through an isolated node");
        assert_eq!(c.pairs().len(), 9);
    }

    #[test]
    fn missing_link_flips_connected() {
        let mut l = line();
        l.remove(1, 2);
        let c = l.closure(4);
        assert!(!c.get(0, 2) && !c.get(1, 2), "2 is cut off downstream");
        assert!(
            c.get(2, 0),
            "the reverse direction still carries 2 -> 1 -> 0"
        );
        assert!(!c.get(2, 2), "2 has no way back to itself");
        assert!(c.get(0, 0));
        l.insert(1, 2);
        assert_eq!(l, line());
        assert!(
            l.closure(4).get(0, 2),
            "restoring the link restores the pair"
        );
    }

    #[test]
    fn one_way_cycle() {
        let mut l = LinkSet::default();
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            l.insert(a, b);
        }
        let c = l.closure(3);
        assert_eq!(c.pairs().len(), 9);
        l.remove(2, 0);
        let c = l.closure(3);
        assert_eq!(
            c.pairs(),
            [(0, 1), (0, 2), (1, 2)]
                .into_iter()
                .collect::<BTreeSet<_>>()
        );
    }
}
