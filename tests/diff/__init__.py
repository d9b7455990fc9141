"""Differential-testing suite: the correctness gate for the incremental
solver hot path.

These tests compare the incremental solver against from-scratch solves
(bitwise), the flow engine against its from-scratch reference
(``reference.solve_from_scratch``: identical rates and completion
times), and the flow-level engine against the packet-level baseline
(within the E3 accuracy tolerance).  See docs/testing.md.
"""
