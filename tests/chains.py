"""Chains for tests, each coupling's form resolved as `config.parse_config`
resolves it."""

from spinswap.model import ChainSpec, Regime, resolve_regime

# a coarse-graining window that puts the presets' distinct Larmor
# frequencies in the Ising regime and equal ones in the zero-quantum regime
DT = 4.1e-7  # s


def resolved_chain(larmor, couplings=(), regime=Regime.AUTO, coarse_grain_dt=DT):
    """ChainSpec of (a, b, J) couplings, each pair's regime resolved from
    `regime` over `coarse_grain_dt` (`model.resolve_regime`)."""
    larmor = tuple(larmor)
    return ChainSpec(larmor, tuple(
        (a, b, j, resolve_regime(regime, larmor[a], larmor[b], coarse_grain_dt))
        for a, b, j in couplings))
