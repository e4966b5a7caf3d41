"""``repro.analysis.lint`` — per-module determinism & lateness rules, and the
value types every ``repro check`` rule family shares.

* :mod:`.engine` — :class:`~.engine.SourceModule` (one parsed file) and the
  per-module :class:`~.engine.Rule` plugin base;
* :mod:`.findings`, :mod:`.waivers`, :mod:`.baseline`, :mod:`.fix` — the
  finding value object, ``# repro: allow(<rule>): why`` parsing, the
  committed ``check-baseline.json`` format, and ``--fix``;
* :mod:`.rules_determinism` (D1–D5), :mod:`.rules_lateness` (L1–L3),
  :mod:`.rules_exports` (X1), :mod:`.rules_waivers` (W1–W2).

The rules are registered and run by :mod:`repro.analysis.check`
(``repro check``, see ``docs/ANALYSIS.md``).
"""
