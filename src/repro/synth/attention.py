"""Ground-truth organ attention.

Each user carries a latent attention distribution over the six organs —
the quantity the paper *estimates* from tweets via the Û matrix.  Planting
it explicitly lets every experiment be scored against known truth:

* the focal organ follows a national popularity prior (heart first) with
  per-state multiplicative boosts (the geographic anomalies of Fig. 5);
* the mass a user spreads to non-focal organs follows a directed
  co-attention matrix encoding the paper's Fig. 3 reading (kidney is the
  top co-mention for heart/liver/pancreas users; heart for the others —
  deliberately non-reciprocal);
* archetypes control concentration: single-focus patients/advocates,
  dual-focus users (weighted toward the common dual transplants), and
  broad advocates who mention everything.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.organs import N_ORGANS, ORGANS, Organ
from repro.synth.config import AttentionConfig
from repro.synth.draws import choice_cdf, draw


class Archetype(enum.Enum):
    """Latent user role, controlling attention concentration."""

    SINGLE_FOCUS = "single"
    DUAL_FOCUS = "dual"
    BROAD = "broad"


#: Directed co-attention: row = focal organ, column = share of the user's
#: *non-focal* attention going to each other organ.  Diagonal is zero; rows
#: sum to 1.  Encodes the paper's Fig. 3 claims.
CO_ATTENTION: np.ndarray = np.array(
    [
        # heart   kidney  liver   lung    pancr.  intest.
        [0.00, 0.45, 0.25, 0.18, 0.08, 0.04],  # heart   -> kidney first
        [0.42, 0.00, 0.28, 0.15, 0.11, 0.04],  # kidney  -> heart first
        [0.27, 0.45, 0.00, 0.16, 0.08, 0.04],  # liver   -> kidney first
        [0.45, 0.27, 0.16, 0.00, 0.08, 0.04],  # lung    -> heart first
        [0.22, 0.48, 0.18, 0.08, 0.00, 0.04],  # pancreas-> kidney first
        [0.40, 0.25, 0.20, 0.10, 0.05, 0.00],  # intestine->heart first
    ]
)

#: Secondary-organ preference for dual-focus users, biased toward the
#: common dual transplants (heart–kidney, liver–kidney, kidney–pancreas).
DUAL_PARTNER = CO_ATTENTION  # same directed structure

_DUAL_PARTNER_CDFS = tuple(choice_cdf(row) for row in DUAL_PARTNER)


@dataclass(frozen=True, slots=True)
class UserAttention:
    """Ground-truth attention of one user.

    Attributes:
        archetype: latent role.
        focal: most-attended organ.
        secondary: second organ for dual-focus users, else ``None``.
        distribution: attention vector over organs, sums to 1.
    """

    archetype: Archetype
    focal: Organ
    secondary: Organ | None
    distribution: np.ndarray


class AttentionModel:
    """Samples ground-truth attention vectors.

    The weighted draws go through cdfs built once per state prior and
    per :data:`DUAL_PARTNER` row (:mod:`repro.synth.draws`), and each
    Dirichlet concentration vector is built once per (archetype, focal,
    secondary), so a sample costs its draws and little else.

    Args:
        config: attention configuration (priors, boosts, archetype mix).
        rng: generator all sampling flows through.
    """

    def __init__(self, config: AttentionConfig, rng: np.random.Generator):
        self._config = config
        self._rng = rng
        self._focal_cdfs: dict[str | None, list[float]] = {}
        self._alphas: dict[tuple[Archetype, int, int | None], np.ndarray] = {}

    def focal_prior(self, state: str | None) -> np.ndarray:
        """Focal-organ distribution for a state (boosted, renormalized)."""
        prior = np.array(self._config.national_prior, dtype=float)
        boosts = self._config.state_boosts.get(state or "", {})
        for organ_index, multiplier in boosts.items():
            prior[organ_index] *= multiplier
        return prior / prior.sum()

    def sample(self, state: str | None) -> UserAttention:
        """Sample one user's ground-truth attention."""
        config = self._config
        rng = self._rng
        roll = rng.random()
        focal_cdf = self._focal_cdfs.get(state)
        if focal_cdf is None:
            focal_cdf = self._focal_cdfs[state] = choice_cdf(self.focal_prior(state))
        focal_index = draw(focal_cdf, rng)

        secondary_index: int | None = None
        if roll < config.archetype_probs[0]:
            archetype = Archetype.SINGLE_FOCUS
        elif roll < config.archetype_probs[0] + config.archetype_probs[1]:
            archetype = Archetype.DUAL_FOCUS
            secondary_index = draw(_DUAL_PARTNER_CDFS[focal_index], rng)
        else:
            archetype = Archetype.BROAD

        key = (archetype, focal_index, secondary_index)
        alpha = self._alphas.get(key)
        if alpha is None:
            alpha = self._alphas[key] = self._concentration(*key)
        distribution = rng.dirichlet(alpha)
        # Dirichlet noise can displace the intended focal organ; restore it
        # so the planted ground truth stays exact for single/dual users.
        if archetype is not Archetype.BROAD:
            top = int(np.argmax(distribution))
            if top != focal_index:
                distribution[[top, focal_index]] = distribution[[focal_index, top]]
        return UserAttention(
            archetype=archetype,
            focal=ORGANS[focal_index],
            secondary=None if secondary_index is None else ORGANS[secondary_index],
            distribution=distribution,
        )

    def _concentration(
        self, archetype: Archetype, focal_index: int, secondary_index: int | None
    ) -> np.ndarray:
        """Dirichlet parameters: the archetype's profile times the concentration."""
        config = self._config
        if secondary_index is not None:  # dual focus
            primary_weight = 1.0 - config.dual_secondary_weight
            base = primary_weight * _one_hot(focal_index)
            base = base + config.dual_secondary_weight * _one_hot(secondary_index)
            # A sliver of background attention so dual users occasionally
            # mention a third organ.
            base = 0.96 * base + 0.04 * CO_ATTENTION[focal_index]
        elif archetype is Archetype.SINGLE_FOCUS:
            base = (
                config.focal_weight * _one_hot(focal_index)
                + (1.0 - config.focal_weight) * CO_ATTENTION[focal_index]
            )
        else:
            # Broad advocates track the national conversation with a mild
            # tilt toward their own focal organ.
            national = np.array(config.national_prior)
            base = 0.75 * national + 0.25 * _one_hot(focal_index)
        return base * config.dirichlet_concentration


def _one_hot(index: int) -> np.ndarray:
    vec = np.zeros(N_ORGANS)
    vec[index] = 1.0
    return vec
