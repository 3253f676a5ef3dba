"""Shared fixtures: a small simulated study reused across test modules."""
import pytest

from stressmon.cli import featurize_directory
from stressmon.sim import SimConfig, ParticipantParams, run_simulation


@pytest.fixture(scope="session")
def small_study(tmp_path_factory):
    """5 users x 2 days with one Wi-Fi outage; returns (out_dir, result)."""
    out = tmp_path_factory.mktemp("small_study")
    cfg = SimConfig(
        n_users=5, days=2, seed=42,
        participants=ParticipantParams(stress_bpm_delta=9.0,
                                       baseline_bpm_range=(60.0, 84.0)),
    )
    cfg.network.wifi_outages_ms = ((36_000_000, 50_400_000),)  # 10:00-14:00 day 1
    result = run_simulation(cfg, out)
    return out, result


@pytest.fixture(scope="session")
def small_matrix(small_study):
    out, _ = small_study
    return featurize_directory(out)

