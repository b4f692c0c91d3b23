"""Low-level data structures used by the graph algorithms.

* :class:`~repro.structures.heap.IndexedHeap` — addressable binary heap
  with arbitrary key updates (greedy peeling needs *increase*-key because
  difference graphs carry negative edge weights).
* :class:`~repro.structures.segment_tree.MinSegmentTree` — the paper's
  suggested structure for locating the minimum-degree vertex.
"""

from repro.structures.heap import IndexedHeap
from repro.structures.segment_tree import MinSegmentTree

__all__ = ["IndexedHeap", "MinSegmentTree"]
