"""``repro.analysis.flow`` — interprocedural information-flow rules (F1–F2).

Where the per-module rules (:mod:`repro.analysis.lint`) check what a single
expression *looks like*, this package checks where values *go*: a
project-wide taint analysis with per-function summaries, guarding two
invariants with declarative **source → sanitizer → sink** policies:

1. **F1 lateness** — live engine state reaches the adversary only
   through an :class:`~repro.adversary.view.AdversaryView` built with
   explicit lateness keywords — even when it travels through variables,
   helper functions, or ``getattr``;
2. **F2 determinism** — wall-clock, environment, and global-RNG values
   never reach fingerprint-feeding state, interprocedurally.

:mod:`.callgraph` indexes functions and resolves calls (shared with the S
and P families), :mod:`.summaries` runs the fixpoint, :mod:`.policies`
declares the two policies, which are their own ``repro check`` rules.
"""
