"""Pinned output digests: refactors must leave every result byte-identical.

Each case runs `mlosim run` on a short config and compares the sha256 of
delays.csv and summary.txt with a pinned value.  The stress cases (one
seed, ten stations, 0.1 s estimator period) drive thousands of SAP
restarts, LOST frames and admission drops per run, so they exercise the
split-policy re-allocation, buffer overflow and the horizon; the retry
case loses frames to retry exhaustion.

A digest may only change on purpose: re-pin it together with a CHANGES.md
note saying why the output moved.
"""

import hashlib
import json

import pytest

from mlosim import cli

BASE = {"sim_duration_s": 2.0, "activation_window_s": 0.1, "seeds": [0, 1],
        "n_sta": 4}
STRESS = {**BASE, "seeds": [0], "n_sta": 10, "update_period_s": 0.1}

CASES = {
    "sl-80-minstrel": (
        {**BASE, "policy": "sl", "links": "80"},
        "7727b7d0a0013d469aec8aac9c92cd1a82560d5183834dcad31af3f725ca2f2e",
        "65c1f15e7f22d69ae740e5f36f1fffc7aab53b20ab2139f170bd4a2bb65756d6"),
    "sl-80-fixed": (
        {**BASE, "policy": "sl", "links": "80", "fixed_mcs": 7},
        "9cac140a173ba2e2310ef87060c51a2e28c36eceb58a3af69c38e96f4cfc26c7",
        "2aefeb1e4313d1ad15b294c88b65ed1cd856836778391954d6cffd3afdfcf618"),
    "greedy-2x40": (
        {**BASE, "policy": "greedy", "links": "2x40"},
        "9e8bc2ef6438f490ef362a30d198e695a799a470b9cd97a598748ec7cdaeec6f",
        "2c351141b99958d35a2439bfd307680ec48b4d82d9e0554c655d3f0b231becf3"),
    "uniform-4x20": (
        {**BASE, "policy": "uniform", "links": "4x20"},
        "95d46bc71d02c506141865e197a5433f0ac505c6df785d0a2bb3d470b3b59aba",
        "a11b58b67385ef2f3c029962244ba5b0eb453be0aa77376a455370c9e2a98f9e"),
    "uniform-2x40-fixed": (
        {**BASE, "policy": "uniform", "links": "2x40", "fixed_mcs": 7},
        "bd6f749131ea717faa3350d5a4da72349fdc0834a867bb063a79ec247d0eef1b",
        "0db6db15db39d7f806d9f9372a7c4eb1fa2758902ed662e1dc8cf91c17f8a9f5"),
    "congestion-2x40": (
        {**BASE, "policy": "congestion", "links": "2x40"},
        "3ad6d95ec0b5231e7c9da9bae8b002cdb504b7b02bfe4c3785cd38e415becc77",
        "51b4c1e0b55be98361af075dbeec7315affb84b04826796df235f7495776197e"),
    "congestion-4x20-fixed": (
        {**BASE, "policy": "congestion", "links": "4x20", "fixed_mcs": 7},
        "b760037350d804a9841aed677774fd4d1eae23cb6de51c324c4cf9acd4396dad",
        "8fc5dfb8da3e2b0582bba4b6ba359dc52be01679dc8d4ec7dd7abfc1277b4558"),
    "condition-2x40": (
        {**BASE, "policy": "condition", "links": "2x40"},
        "a8b164d8bc8131dc5462802a8d4b640beb709079dce89a6d95ea75766f3c8d16",
        "2a4c7bce56a472160b59590fd045ffc2b39319100a4cc6c97a142b5967c50a2e"),
    "condition-4x20": (
        {**BASE, "policy": "condition", "links": "4x20"},
        "9c46d861ac4b4a96af59a21bc02efc4ff4b08f6c2c18a36404f80272a8bbf2fe",
        "c505dce8933beaad079db8b3836bf84416cd0a12dc51ef4dd4811dc1032b06a0"),
    "stress-congestion-2x40": (
        {**STRESS, "policy": "congestion", "links": "2x40"},
        "5498f037e271fdb7162d99b929d2b26f36a5ebe3f8a68384a208da014fba09cb",
        "06598c45013036ff3bbeafe2a0a030079b27623b45ab316d16c608085c7a889d"),
    "stress-uniform-4x20-cap64": (
        {**STRESS, "policy": "uniform", "links": "4x20", "buffer_cap": 64},
        "4056efac466a7c6142932e43c540bb78023be0e4f8fdb0cd6163e7319f321c5a",
        "809caed45cc41445a28228fdebdebf7eb9fadca92dfb684bf0df874e3dd39599"),
    "stress-condition-2x40-rx-only": (
        {**STRESS, "policy": "condition", "links": "2x40", "count_own_tx": False},
        "4d2aae37fec5f9880c91c897ef8b8b7d1c897b13a6e3098779c658dd313e1da4",
        "1eeb0c433b4a7afdedbf4f3a619f2a08b37234e031ccceee7514baf2ce5945b7"),
    # own airtime subtracted on four links, where shares restart most
    "stress-congestion-4x20-rx-only": (
        {**STRESS, "policy": "congestion", "links": "4x20", "count_own_tx": False},
        "ef2a130b69c3cb5cf06cce908c32db970ebbbad29433babb440845da540ee731",
        "bb5ea5c0b153fb6a337fda65970dbfb9100b0e7370eb4811e0588886ce47d0e6"),
    "stress-greedy-2x40-cap64": (
        {**STRESS, "policy": "greedy", "links": "2x40", "buffer_cap": 64},
        "4858c80eb3e49a5ac1264229ec73e00b5af9f2867ded137f4b62dd378a3890a3",
        "6dd123b7e1d84a8f3c57316e986d022faa1209405ee78df3da7846e558e8667e"),
    # MCS 11 at up to 14 m sits on the error ramp: hundreds of MPDUs
    # exhaust their retries, and siblings of an already LOST frame are
    # still dropped or delivered afterwards
    "retry-condition-2x40-r14": (
        {**BASE, "policy": "condition", "links": "2x40", "fixed_mcs": 11,
         "cell_radius_m": 14.0},
        "8a783a456c93541d3ffdd6ea76f2eeef709a13864c5ce56d22e52e085ddf178e",
        "eee212873d4a00e9cc522205464593d42e578aae7a1e65cba4b5ab7153f48c99"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path):
    config, delays_sha, summary_sha = CASES[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out),
                     "--workers", "1"]) == 0
    got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                for f in ("delays.csv", "summary.txt"))
    assert got == (delays_sha, summary_sha), f"{name}: new digests {got}"
