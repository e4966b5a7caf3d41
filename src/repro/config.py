"""Protocol parameters and derived quantities.

One frozen dataclass, :class:`ProtocolParams`, carries every constant of the
paper's model and algorithms:

* model constants: ``n`` (lower bound on network size), ``kappa`` (so that
  ``|V_t| in [n, kappa*n]``), ``alpha`` (churn fraction), ``whp_exponent``
  (the tunable ``k`` in "w.h.p. = 1 - 1/n^k");
* topology constants: the swarm robustness parameter ``c`` (swarm radius is
  ``c * lam / n``), with list radius ``2c*lam/n`` and De Bruijn radius
  ``3c*lam/(2n)`` exactly as in Definition 5;
* algorithm constants: ``r`` (copies per forwarding hop of A_ROUTING),
  ``delta`` (connections each fresh node maintains, Theta(log n)), ``tau``
  (tokens each mature node emits per round, Theta(log n));
* the goodness threshold (the paper uses 3/4 in Definition 8).

Derived quantities (``lam``, radii, maturity age ``lambda_prime``, churn
window, adversary lateness) are exposed as properties so that every module
computes them the same way.  Those on the per-message hot path (``lam``, the
radii, ``delta_eff`` / ``tau_eff`` / ``sampling_rank_range``) are
``cached_property``: computed once per instance, outside the dataclass
fields, so equality, hashing and ``replace()`` see the fields only.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any

from repro.util.bits import num_address_bits

__all__ = ["ProtocolParams", "default_params", "env_flag"]


def env_flag(name: str) -> bool:
    """True when environment variable ``name`` holds a truthy value.

    The single sanctioned entry point for boolean feature flags (the D5
    lint rule confines ``os.environ`` reads to this module): flags read
    here configure *instrumentation* — e.g. ``REPRO_SHARD_SANITIZE`` —
    never anything that feeds a fingerprint.
    """
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


@dataclass(frozen=True)
class ProtocolParams:
    """All constants of the model and algorithms; see module docstring.

    The defaults follow Section 5: ``alpha = 1/16``, ``kappa = 1 + 1/16``.
    ``delta`` and ``tau`` default to ``Theta(log n)`` scalings calibrated by
    the ablation experiment (E-AB in DESIGN.md); pass explicit values to
    override.
    """

    n: int
    kappa: float = 1.0 + 1.0 / 16.0
    alpha: float = 1.0 / 16.0
    c: float = 1.5
    r: int = 2
    delta: int | None = None
    tau: int | None = None
    goodness: float = 0.75
    whp_exponent: int = 1
    seed: int = 0
    # Explicit churn-rate overrides.  The model only demands C = Theta(n) and
    # T = Theta(log n); the Section-2 impossibility proofs pick their own
    # constants, so experiments may override the Section-5 defaults.
    churn_budget_override: int | None = None
    churn_window_override: int | None = None

    def __post_init__(self) -> None:
        if self.n < 8:
            raise ValueError(f"n must be at least 8, got {self.n}")
        if not 1.0 <= self.kappa <= 2.0:
            raise ValueError(f"kappa must lie in [1, 2], got {self.kappa}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.r < 1:
            raise ValueError(f"r must be at least 1, got {self.r}")
        if not 0.0 < self.goodness < 1.0:
            raise ValueError(f"goodness must lie in (0, 1), got {self.goodness}")
        if self.delta is not None and self.delta < 1:
            raise ValueError(f"delta must be at least 1, got {self.delta}")
        if self.tau is not None and self.tau < 1:
            raise ValueError(f"tau must be at least 1, got {self.tau}")

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @cached_property
    def lam(self) -> int:
        """Address width ``lam = ceil(log2(kappa * n))`` (the paper's lambda)."""
        return num_address_bits(self.n, self.kappa)

    @cached_property
    def swarm_radius(self) -> float:
        """Swarm ``S(p)`` radius ``c * lam / n``."""
        return self.c * self.lam / self.n

    @cached_property
    def list_radius(self) -> float:
        """List-edge radius ``2 * c * lam / n`` (Definition 5, E_L)."""
        return 2.0 * self.swarm_radius

    @cached_property
    def debruijn_radius(self) -> float:
        """Long-distance edge radius ``3/2 * c * lam / n`` (Definition 5, E_DB)."""
        return 1.5 * self.swarm_radius

    @property
    def expected_swarm_size(self) -> float:
        """``E[|S(p)|] = 2 * c * lam`` at density n (lower bound on density)."""
        return 2.0 * self.c * self.lam

    # ------------------------------------------------------------------
    # Algorithms
    # ------------------------------------------------------------------

    @cached_property
    def delta_eff(self) -> int:
        """Fresh-node connection count delta (Theta(log n) default)."""
        return self.delta if self.delta is not None else max(3, self.lam)

    @cached_property
    def tau_eff(self) -> int:
        """Tokens per mature node per cycle (Theta(log n) default).

        Each fresh node consumes ``delta`` tokens per cycle and each join
        consumes ``2 * delta``; tokens are also thinned by the A_SAMPLING
        discard (~1/2) and the keep-or-forward coin (~1/2), so the default
        provides a 4x surplus.
        """
        return self.tau if self.tau is not None else 4 * self.delta_eff

    @cached_property
    def sampling_rank_range(self) -> int:
        """Range of the rank offset Delta in A_SAMPLING.

        Chosen as ``ceil(2 * E[|S|]) = ceil(4 * c * lam)`` so that the swarm
        size exceeds the range only with probability ``1/n^k`` (preserving
        uniformity) while the discard probability stays at most ~1/2 as in
        Lemma 13.
        """
        return math.ceil(2.0 * self.expected_swarm_size)

    @property
    def dilation(self) -> int:
        """Rounds from send to delivery under A_ROUTING: exactly ``2*lam + 2``."""
        return 2 * self.lam + 2

    # ------------------------------------------------------------------
    # Maintenance timing (Section 5)
    # ------------------------------------------------------------------

    @property
    def lambda_prime(self) -> int:
        """Maturity age ``lam' = 2*lam + 4`` rounds (Section 5)."""
        return 2 * self.lam + 4

    @property
    def bootstrap_rounds(self) -> int:
        """Length of the churn-free bootstrap phase, ``2*lam + 7``."""
        return 2 * self.lam + 7

    @property
    def lateness(self) -> tuple[int, int]:
        """The adversary the maintenance algorithm tolerates: ``(2, 2*lam+7)``-late."""
        return (2, 2 * self.lam + 7)

    @property
    def churn_window(self) -> int:
        """Churn window ``T = 4*lam + 14`` rounds (Section 5 default)."""
        if self.churn_window_override is not None:
            return self.churn_window_override
        return 4 * self.lam + 14

    @property
    def churn_budget(self) -> int:
        """Join/leave budget per window: ``alpha * n`` by default."""
        if self.churn_budget_override is not None:
            return self.churn_budget_override
        return max(1, int(self.alpha * self.n))

    @property
    def max_nodes(self) -> int:
        """Upper bound ``kappa * n`` on the live node count."""
        return int(math.floor(self.kappa * self.n))

    @property
    def max_joins_per_bootstrap(self) -> int:
        """How many new nodes may join via the same node per round (constant)."""
        return 2

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def with_updates(self, **kwargs: Any) -> "ProtocolParams":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)

    def describe(self) -> dict[str, Any]:
        """All raw and derived parameters as a flat dict (for reports)."""
        return {
            "n": self.n,
            "kappa": self.kappa,
            "alpha": self.alpha,
            "c": self.c,
            "r": self.r,
            "delta": self.delta_eff,
            "tau": self.tau_eff,
            "goodness": self.goodness,
            "lam": self.lam,
            "swarm_radius": self.swarm_radius,
            "list_radius": self.list_radius,
            "debruijn_radius": self.debruijn_radius,
            "expected_swarm_size": self.expected_swarm_size,
            "dilation": self.dilation,
            "lambda_prime": self.lambda_prime,
            "bootstrap_rounds": self.bootstrap_rounds,
            "lateness": self.lateness,
            "churn_window": self.churn_window,
            "churn_budget": self.churn_budget,
            "max_nodes": self.max_nodes,
            "seed": self.seed,
        }


def default_params(n: int, seed: int = 0, **overrides: Any) -> ProtocolParams:
    """The standard parameterisation used by tests, examples and benchmarks."""
    return ProtocolParams(n=n, seed=seed, **overrides)
