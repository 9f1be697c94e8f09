package graph

// UnionFind is a disjoint-set forest with union by rank and path
// compression.
type UnionFind struct {
	parent []int
	rank   []int8
}

// Find returns the representative of x's set.
func (u *UnionFind) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// Union merges the sets containing x and y and reports whether they
// were previously distinct.
func (u *UnionFind) Union(x, y int) bool {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return false
	}
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = rx
	if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
	return true
}

// Reset reinitializes the forest to n singleton sets, reusing the
// backing arrays when large enough. It lets a zero-value UnionFind be
// recycled through a scratch pool without reallocating per use.
func (u *UnionFind) Reset(n int) {
	if cap(u.parent) < n {
		u.parent = make([]int, n)
		u.rank = make([]int8, n)
	}
	u.parent = u.parent[:n]
	u.rank = u.rank[:n]
	for i := range u.parent {
		u.parent[i] = i
		u.rank[i] = 0
	}
}
