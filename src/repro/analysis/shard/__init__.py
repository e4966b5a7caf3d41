"""``repro.analysis.shard`` — process-role & shared-memory ownership rules (S2–S5).

Guards the *multi-process* safety contract of the sharded round engine
(:mod:`repro.sim.shard`):

1. :mod:`.roles` infers a **process role** — master-only / worker-only /
   shared — for every function, by seeding known entry points
   (``_worker_main``-style worker bodies; ``ShardRunner`` methods and
   ``Engine.run``/``Engine.run_round`` on the master side) and propagating
   over the call graph (:class:`~repro.analysis.flow.callgraph.ProjectIndex`);
2. :mod:`.rules` checks declarative rules against those roles:

   ====  ========================  ==================================================
   S2    shard-boundary-types      only codec-approved values reach pipe/frame sinks
   S3    shard-master-state        worker code never touches master-only state
   S4    shard-segment-lifecycle   every segment acquisition reaches destroy/close
   S5    shard-fork-hygiene        no module-global mutation or un-reseeded RNG in
                                   worker code
   ====  ========================  ==================================================

The rules are registered and run by :mod:`repro.analysis.check`
(``repro check --rules S``, see ``docs/ANALYSIS.md``).
"""
