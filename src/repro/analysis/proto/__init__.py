"""``repro.analysis.proto`` — the protocol contract rules (P3, P6).

:mod:`.extract` reads the *declared* protocol off the AST — message
classes, their constructor calls and the routed-payload tags — and
:mod:`.rules` checks it against the committed declarative spec
``protocol-spec.json`` (:mod:`.spec`).

The rules are registered and run by :mod:`repro.analysis.check`
(``repro check --rules P``, see ``docs/ANALYSIS.md``).
"""
