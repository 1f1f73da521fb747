"""Each parameter dataclass owns its constraints and reports every violated
one in a single error; the README's config and import examples hold."""

import json
import re

import pytest

import kortorus
from kortorus.config import InitialSpec, parse_config
from kortorus.errors import ConstraintViolationError, VariantMismatch
from kortorus.functionals import MonitorSpec
from kortorus.littlewood_paley import BesovIndex, heat_regularity_check
from kortorus.model import ModelParams
from kortorus.spectral import SpectralGrid
from kortorus.timestepping import IntegratorConfig
from helpers import README, readme_blocks


@pytest.mark.parametrize("build, fragments", [
    (lambda: SpectralGrid((48, 64), length=(-1.0, 0.0)),
     ("powers of two >= 8, got 48", "positive, got -1.0", "positive, got 0.0")),
    (lambda: ModelParams(mu=1.0, alpha=0.0, kappa=-1.0, a=0.0, gamma=0.5),
     ("model.kappa", "model.a", "model.gamma")),
    (lambda: IntegratorConfig(dt_initial=1e-3, dt_min=1e-2, t_end=0.0, cfl_safety=2.0),
     ("dt_min <= dt_initial", "integrator.t_end", "integrator.cfl_safety")),
    (lambda: MonitorSpec(delta=3.0, p_vacuum=1.0, epsilon=0.0),
     ("monitors.delta must lie", "monitors.p_vacuum", "monitors.epsilon")),
    (lambda: BesovIndex(0.0, 0.5, 0.5, flavor="x"),
     ("p >= 1, got 0.5", "r >= 1, got 0.5", "flavor must be")),
    (lambda: heat_regularity_check(SpectralGrid(64).zeros(), None, -1.0, 0.0, 2.0, 2.0,
                                   1.0, 1.0, 0.0, n_time=1),
     ("mu > 0, got -1.0", "T > 0, got 0.0", "n_time >= 2, got 1")),
], ids=["grid", "model", "integrator", "monitors", "besov", "heat"])
def test_three_violations_reported_together(build, fragments):
    with pytest.raises(ConstraintViolationError) as err:
        build()
    assert isinstance(err.value, ValueError)
    assert len(err.value.violations) == 3
    for fragment, violation in zip(fragments, err.value.violations):
        assert fragment in violation


def test_variant_violation_listed_with_the_others():
    with pytest.raises(VariantMismatch) as err:
        ModelParams(mu=1.0, alpha=0.5, kappa=2.0, a=1.0, gamma=0.5, variant="effective_v2")
    text = "\n".join(err.value.violations)
    assert len(err.value.violations) == 3
    for fragment in ("model.gamma", "alpha = 0", "kappa = mu^2"):
        assert fragment in text


def test_monitor_delta_out_of_range():
    with pytest.raises(ValueError):
        MonitorSpec(delta=3.0)


def test_initial_family_checked():
    with pytest.raises(ConstraintViolationError) as err:
        InitialSpec(family="vortex")
    assert "initial.family" in err.value.violations[0]


def test_readme_default_block_is_the_parsed_empty_config():
    (default,) = [b for b in readme_blocks("json") if '"output"' in b]
    assert json.loads(default) == parse_config("{}").to_json_dict()


def test_readme_squeeze_example_round_trips():
    (squeeze,) = [b for b in readme_blocks("json") if "gaussian_bump" in b]
    cfg = parse_config(squeeze)
    assert cfg.initial.params["velocity_amplitude"] == 2.8
    assert cfg.monitors.epsilon == 0.75 and cfg.monitors.delta_vacuum == 0.25
    assert parse_config(cfg.serialize()) == cfg


def test_readme_library_entry_points_import():
    section = README.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, flags=re.DOTALL).group(1)
    names = re.findall(r"\w+", block.split("import", 1)[1])
    assert names and all(hasattr(kortorus, name) for name in names)
    exec(block, {})
