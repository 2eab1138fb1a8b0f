package repro.structures

/** A [[VertexKeys]] over a test's own closures; every vertex is selectable
  * unless `selectableOf` says otherwise.
  */
final class FnKeys(keyOf: Int => Int, aliveOf: Int => Boolean,
                   selectableOf: Int => Boolean = _ => true) extends VertexKeys {
  def key(v: Int): Int = keyOf(v)
  def alive(v: Int): Boolean = aliveOf(v)
  def selectable(v: Int): Boolean = selectableOf(v)
}
