"""Golden digests of the multiparticle tracker and the Fig. 5b emulator.

Pins the sha256 of every array of :class:`MachineRunResult` for two
short 5000-particle :class:`MachineExperimentEmulator` runs at the
default configuration (loop closed, loop open; the first 10-degree jump
lands at 5 ms), and of the final ``delta_t``, ``delta_gamma`` and
``gamma_ref`` plus every recorded moment of
:meth:`MultiParticleTracker.track` for two 2000-particle runs: the
analytic stationary bucket and an accelerating bucket (φ_s = 0.3, so the
reference particle gains energy and γ_R changes every turn).  The
digests were recorded before the per-turn step moved to in-place buffers
and hoisted constants, so they prove that move bit-exact.  They were
taken on x86-64 with NumPy 2.4: a platform whose ``np.sin`` rounds
differently will disagree here first (as in ``test_batch_golden.py``).  A deliberate model change needs new
digests and a line in CHANGES.md saying why.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.offline_tracker import MachineExperimentConfig, MachineExperimentEmulator
from repro.physics.distributions import gaussian_bunch
from repro.physics.multiparticle import MultiParticleTracker

#: Machine time of each emulator run: 1 ms past the first jump.
DURATION = 0.006
N_TURNS = 400
N_PARTICLES = 2000

EMULATOR_RUNS = {"closed_loop": {}, "open_loop": dict(control_enabled=False)}

#: Tracker runs: (RF overrides, fixed f_rev or None to follow γ_R).
TRACKER_RUNS = {
    "stationary": ({}, 800e3),
    "accelerating": (dict(synchronous_phase=0.3), None),
}

#: sha256 of each array, recorded before the in-place step.
GOLDEN = {
    "closed_loop": {
        "correction_deg": (
            (601,),
            "d272b416bc4d99316a82933fe3113713a4c011f966eef2421bd395d1d898a9ab",
        ),
        "jump_deg": (
            (601,),
            "eaedd52ea3dee14076f2c54e92986ad5beb6be2ab3d56078560e2c7198433f1b",
        ),
        "phase_deg": (
            (601,),
            "aa0ba937d5646525cabe120880e89abddba7dc8d9d225a0c2f79612d9433ca7c",
        ),
        "sigma_delta_t": (
            (601,),
            "a01b74258259c54f01dc0f3718aa84dc00b5f4d2185a6a61379232216d0107fc",
        ),
        "time": (
            (601,),
            "9c2770b17160393fbcb8c1a0f46703f0d2b0a5bc16e41d87d546561feb3acace",
        ),
    },
    "open_loop": {
        "correction_deg": (
            (601,),
            "de17cbbe7d377687b50cbaee47a73f59b818dc2469a7e91b59e29ac603dbd0fd",
        ),
        "jump_deg": (
            (601,),
            "eaedd52ea3dee14076f2c54e92986ad5beb6be2ab3d56078560e2c7198433f1b",
        ),
        "phase_deg": (
            (601,),
            "4ef75ac6c09510c6e238ac5b0f681dfb8b5c973e32083174f3d720334087f033",
        ),
        "sigma_delta_t": (
            (601,),
            "1eb96fead5d7f00242e28724d64b67d74a10b6317d9a64112001e5edaa952ec8",
        ),
        "time": (
            (601,),
            "9c2770b17160393fbcb8c1a0f46703f0d2b0a5bc16e41d87d546561feb3acace",
        ),
    },
    "stationary": {
        "delta_gamma": (
            (2000,),
            "5ea87a9fb0fd929119a6bb12b3d0c7c535804564228233e227dc11d71ff4ef40",
        ),
        "delta_t": (
            (2000,),
            "f85e4898e4f14d8c324f895f985e8728e907c15e23133e2e9cf0ff7407899026",
        ),
        "gamma_ref": (
            (),
            "9cc7a5e82ffb2530e95edd0366430fc5545d2e47c53681bd70443a7c75d80029",
        ),
        "mean_delta_gamma": (
            (401,),
            "d532acc785ee0e18a0067ee5a173d0b79b99175bd68fb233232fa6e9119f484d",
        ),
        "mean_delta_t": (
            (401,),
            "1470399167f7f88589b131b4f0d9f98a3e884515661f41a968ce6df60b9288d8",
        ),
        "std_delta_gamma": (
            (401,),
            "291f7d1397881dbb83bf1b190c0af74cc9f6c9bad6c705bd7516d9e13d73f8d2",
        ),
        "std_delta_t": (
            (401,),
            "a14215297c3af3672c691598a741362aef8b6a11147f111891569dc22dbeafb3",
        ),
        "time": (
            (401,),
            "029e49553b5276ec0bb6118c42671483eb596a34fc258c23998e92c603e77094",
        ),
        "turns": (
            (401,),
            "a015772e1358ea615c8498749e0ecc1dc35b3985fb794fe08adda8edde8ee1ad",
        ),
    },
    "accelerating": {
        "delta_gamma": (
            (2000,),
            "656abf0a8697a392544dfead6034a78e8fac4dad9e82bb72d94828f0e4a2feec",
        ),
        "delta_t": (
            (2000,),
            "a770cb85a99fa89fc5fa016ebf5d2809afc06e6ce3e6b20c7d732cdd46cfab13",
        ),
        "gamma_ref": (
            (),
            "be2a5e37ea972bc978ee93a844b178b8d0e2a8eb8e28a283e0b5305fb491af57",
        ),
        "mean_delta_gamma": (
            (401,),
            "2a34c0ea157c16a2a3740eb86237e53649a04e5dbe3007f932b30a595cd92faf",
        ),
        "mean_delta_t": (
            (401,),
            "7877c676cd461d93b5c55c58fb63afe40ab4e8e32f03b19729d460d8c22b47bb",
        ),
        "std_delta_gamma": (
            (401,),
            "007544d2800f09c2a5b6a46d7422ce1b4c21f126837e4a73cd2f6b01b30b086c",
        ),
        "std_delta_t": (
            (401,),
            "a2b442ab7109bee520864b6c62287b10075e22e4d4e8aea4a890e06c51f92eae",
        ),
        "time": (
            (401,),
            "d5ca43350c887b98bad350f98a51aa7aebd462fc9342431d137a5ddec02a9cd3",
        ),
        "turns": (
            (401,),
            "a015772e1358ea615c8498749e0ecc1dc35b3985fb794fe08adda8edde8ee1ad",
        ),
    },
}


def _digest(array) -> tuple:
    array = np.asarray(array)
    return array.shape, hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _assert_digests(arrays: dict, expected: dict) -> None:
    assert sorted(arrays) == sorted(expected)
    for name, array in arrays.items():
        assert _digest(array) == expected[name], name


@pytest.mark.parametrize("run", sorted(EMULATOR_RUNS))
def test_emulator_digests(run, ring, ion):
    config = MachineExperimentConfig(ring=ring, ion=ion, **EMULATOR_RUNS[run])
    assert config.n_particles == 5000
    result = MachineExperimentEmulator(config).run(DURATION)
    fields = ("time", "phase_deg", "sigma_delta_t", "correction_deg", "jump_deg")
    _assert_digests({name: getattr(result, name) for name in fields}, GOLDEN[run])


@pytest.mark.parametrize("run", sorted(TRACKER_RUNS))
def test_tracker_digests(run, ring, ion, rf, gamma0):
    rf_overrides, f_rev = TRACKER_RUNS[run]
    delta_t, delta_gamma = gaussian_bunch(
        ring, ion, rf, gamma0, 12e-9, N_PARTICLES, np.random.default_rng(1234),
        centre_delta_t=10e-9,
    )
    tracker = MultiParticleTracker(
        ring, ion, replace(rf, **rf_overrides), delta_t, delta_gamma, gamma0
    )
    record = tracker.track(N_TURNS, f_rev=f_rev)
    fields = ("turns", "time", "mean_delta_t", "std_delta_t", "mean_delta_gamma",
              "std_delta_gamma")
    arrays = {name: getattr(record, name) for name in fields}
    arrays.update(delta_t=tracker.delta_t, delta_gamma=tracker.delta_gamma,
                  gamma_ref=np.float64(tracker.gamma_ref))
    _assert_digests(arrays, GOLDEN[run])
