package repro.core

/** Array-backed union-find with path halving and union by rank.
  *
  * Used twice in the association substrate: merging same-frame observations
  * into bundles, and merging cross-frame bundles into tracks. Scenes are
  * small (thousands of elements), but the structure is O(α(n)) anyway.
  */
final class UnionFind(n: Int) {
  require(n >= 0, s"UnionFind size must be non-negative, got $n")
  private val parent = Array.tabulate(n)(identity)
  private val rank   = new Array[Int](n)

  /** Representative of x's component. */
  def find(x: Int): Int = {
    var r = x
    while (parent(r) != r) {
      parent(r) = parent(parent(r)) // path halving
      r = parent(r)
    }
    r
  }

  /** Merge the components of x and y; returns true iff they were distinct. */
  def union(x: Int, y: Int): Boolean = {
    val rx = find(x); val ry = find(y)
    if (rx == ry) false
    else {
      if (rank(rx) < rank(ry)) parent(rx) = ry
      else if (rank(rx) > rank(ry)) parent(ry) = rx
      else { parent(ry) = rx; rank(rx) += 1 }
      true
    }
  }

  /** Dense component ids in [0, #components), stable in element order. */
  def componentIds: Array[Int] = {
    val ids = new Array[Int](parent.length)
    val idOfRoot = Array.fill(parent.length)(-1)
    var next = 0
    var i = 0
    while (i < parent.length) {
      val r = find(i)
      if (idOfRoot(r) < 0) { idOfRoot(r) = next; next += 1 }
      ids(i) = idOfRoot(r)
      i += 1
    }
    ids
  }
}
