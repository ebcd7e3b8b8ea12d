//! The benchmark's own evaluator: the answers the program's outputs are
//! checked against. It shares no code with the engines — plain hash
//! joins over sets of pairs for each query shape of the catalog, and
//! breadth-first search for the recursive programs.

use std::collections::{BTreeSet, HashMap, HashSet};

/// A binary relation as a set of pairs.
pub type Pairs = HashSet<(u64, u64)>;

/// Successor lists of a binary relation, keyed on the first column.
pub fn by_first(rel: &Pairs) -> HashMap<u64, Vec<u64>> {
    let mut idx: HashMap<u64, Vec<u64>> = HashMap::new();
    for &(a, b) in rel {
        idx.entry(a).or_default().push(b);
    }
    idx
}

/// `H(x,y,z) <- R(x,y), S(y,z), T(z,x)`.
pub fn triangles(r: &Pairs, s: &Pairs, t: &Pairs) -> BTreeSet<Vec<u64>> {
    let s1 = by_first(s);
    let mut out = BTreeSet::new();
    for &(x, y) in r {
        for &z in s1.get(&y).into_iter().flatten() {
            if t.contains(&(z, x)) {
                out.insert(vec![x, y, z]);
            }
        }
    }
    out
}

/// `H(x) <- R(x,y), T(y,x); H(x) <- S(x,y), T(y,x)`.
pub fn two_cycles(r: &Pairs, s: &Pairs, t: &Pairs) -> BTreeSet<Vec<u64>> {
    r.iter()
        .chain(s.iter())
        .filter(|&&(x, y)| t.contains(&(y, x)))
        .map(|&(x, _)| vec![x])
        .collect()
}

/// `H(v,y) <- KV(c,v), R(v,y)` for the constant key `c`.
pub fn point_join(kv: &Pairs, r: &Pairs, c: u64) -> BTreeSet<Vec<u64>> {
    let mut out = BTreeSet::new();
    for &(k, v) in kv {
        if k == c {
            for &(a, y) in r {
                if a == v {
                    out.insert(vec![v, y]);
                }
            }
        }
    }
    out
}

/// Every node reachable from `src` by one or more `e` edges.
pub fn reach(e: &HashMap<u64, Vec<u64>>, src: u64) -> BTreeSet<u64> {
    let mut seen = BTreeSet::new();
    let mut frontier = vec![src];
    while let Some(u) = frontier.pop() {
        for &v in e.get(&u).into_iter().flatten() {
            if seen.insert(v) {
                frontier.push(v);
            }
        }
    }
    seen
}

/// The transitive closure of `e`, by one search per source.
pub fn closure(e: &Pairs) -> BTreeSet<Vec<u64>> {
    let succ = by_first(e);
    let mut out = BTreeSet::new();
    for &src in succ.keys() {
        for dst in reach(&succ, src) {
            out.insert(vec![src, dst]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(ps: &[(u64, u64)]) -> Pairs {
        ps.iter().copied().collect()
    }

    fn rows(rs: &[&[u64]]) -> BTreeSet<Vec<u64>> {
        rs.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn triangles_by_hand() {
        // One triangle 1→2→3→1, one broken path 4→5→6 without the
        // closing edge.
        let r = pairs(&[(1, 2), (4, 5)]);
        let s = pairs(&[(2, 3), (5, 6)]);
        let t = pairs(&[(3, 1), (6, 5)]);
        assert_eq!(triangles(&r, &s, &t), rows(&[&[1, 2, 3]]));
    }

    #[test]
    fn two_cycles_by_hand() {
        let r = pairs(&[(1, 2), (3, 4)]);
        let s = pairs(&[(5, 6)]);
        let t = pairs(&[(2, 1), (6, 5), (4, 9)]);
        assert_eq!(two_cycles(&r, &s, &t), rows(&[&[1], &[5]]));
    }

    #[test]
    fn point_join_by_hand() {
        let kv = pairs(&[(10, 1), (11, 2)]);
        let r = pairs(&[(1, 5), (1, 6), (2, 7)]);
        assert_eq!(point_join(&kv, &r, 10), rows(&[&[1, 5], &[1, 6]]));
        assert!(point_join(&kv, &r, 12).is_empty());
    }

    #[test]
    fn closure_and_reach_by_hand() {
        let e = pairs(&[(1, 2), (2, 3), (4, 5)]);
        assert_eq!(closure(&e), rows(&[&[1, 2], &[1, 3], &[2, 3], &[4, 5]]));
        let succ = by_first(&e);
        assert_eq!(reach(&succ, 1), [2, 3].into_iter().collect());
        assert!(reach(&succ, 3).is_empty());
    }

    #[test]
    fn closure_terminates_on_cycles() {
        let e = pairs(&[(1, 2), (2, 1)]);
        assert_eq!(closure(&e), rows(&[&[1, 1], &[1, 2], &[2, 1], &[2, 2]]));
    }
}
