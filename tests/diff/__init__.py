"""Differential-testing suite: the correctness gate for the incremental
solver hot path.

These tests compare the incremental solver against from-scratch solves
(bitwise), the flow engine against its from-scratch reference
(``reference.solve_from_scratch``: identical rates and completion
times), and the flow-level engine against the packet-level baseline
(within the E3 accuracy tolerance).  The max-min certificate
(``certificate.py``) is the oracle that shares no code with the kernel:
every flow-engine resolve in the suite checks itself against it.  See
docs/testing.md.
"""
