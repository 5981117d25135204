//! Union-find with union by rank and path halving — the backbone of the
//! Kruskal reference and of MSF verification.

/// Disjoint-set forest over dense indices `0..n`.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize);
        Self {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    pub fn len(&self) -> usize {
        self.parent.len()
    }

    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets.
    pub fn components(&self) -> usize {
        self.components
    }

    /// Representative of `x`'s set (path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Merge the sets of `a` and `b`; returns false if already joined.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        self.components -= 1;
        match self.rank[ra as usize].cmp(&self.rank[rb as usize]) {
            std::cmp::Ordering::Less => self.parent[ra as usize] = rb,
            std::cmp::Ordering::Greater => self.parent[rb as usize] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb as usize] = ra;
                self.rank[ra as usize] += 1;
            }
        }
        true
    }

    /// True if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_union_find() {
        let mut uf = UnionFind::new(6);
        assert_eq!(uf.components(), 6);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0), "already merged");
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(0, 2));
        assert!(uf.union(1, 3));
        assert!(uf.connected(0, 2));
        assert_eq!(uf.components(), 3); // {0,1,2,3}, {4}, {5}
    }

    #[test]
    fn long_chain_compresses() {
        let n = 10_000;
        let mut uf = UnionFind::new(n);
        for i in 1..n as u32 {
            uf.union(i - 1, i);
        }
        assert_eq!(uf.components(), 1);
        // After finds, paths are short: spot-check representative equality.
        let r = uf.find(0);
        for i in (0..n as u32).step_by(997) {
            assert_eq!(uf.find(i), r);
        }
    }

    #[test]
    fn empty_and_singleton() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        let mut uf = UnionFind::new(1);
        assert_eq!(uf.find(0), 0);
        assert_eq!(uf.components(), 1);
    }
}
