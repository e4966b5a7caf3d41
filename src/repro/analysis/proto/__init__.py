"""``repro.analysis.proto`` — protocol state-machine & contract rules (P1–P6).

:mod:`.extract` *extracts* the implemented protocol from the AST — message
classes, the ``on_round`` dispatch table, construction sites with their
lifecycle-phase contexts (:mod:`.phases`), routed-payload tags, hop-step /
TTL / epoch writes — and :mod:`.rules` *checks* it against the committed
declarative spec ``protocol-spec.json`` (:mod:`.spec`).

The rules are registered and run by :mod:`repro.analysis.check`
(``repro check --rules P``, see ``docs/ANALYSIS.md``).
"""
