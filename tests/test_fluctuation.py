"""The pure-Python series of ``rfad.fluctuation``, held to numpy: its
seeding, its normal draws, its ziggurat tables and its series.

Nothing in numpy's interface promises that a re-implementation of its
stream matches it, so each part is compared with numpy itself; if a numpy
release changes its stream, these fail instead of ``rfad simulate`` and
the campaign drifting apart silently.
"""

import collections
import hashlib
import os
import shutil
import struct
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfad import fluctuation
from rfad.config import load_config
from rfad.fluctuation import (ZIGGURAT_FI, ZIGGURAT_KI, ZIGGURAT_WI, FluctuationModel,
                              material_fluctuation_model, pcg64_state, standard_normal,
                              synthesize_series)
from rfad.materials import REFERENCE_LIQUIDS
from rfad.signal import pcg64_states, synthesize_block

# Seeds by their count of 32-bit words. numpy pads a seed of fewer than
# four words with zero words, and mixes each word past the fourth into
# the whole pool.
_SEEDS_BY_WORDS = {
    1: [0, 1, 7, 2 ** 32 - 1],
    2: [2 ** 32, 2 ** 64 - 1],
    3: [2 ** 64, 2 ** 96 - 1],
    4: [2 ** 96, 2 ** 128 - 1],
    5: [2 ** 128, 2 ** 128 + 3, 2 ** 160 - 1],
    7: [2 ** 200 + 5, 2 ** 224 - 1],
}
_SEEDS = st.one_of(st.integers(0, 2 ** 31 - 1), st.integers(2 ** 32, 2 ** 128 - 1),
                   st.integers(2 ** 128, 2 ** 300))


def _numpy_normals(seed, k):
    return np.random.default_rng(seed).standard_normal(k).tolist()


class TestSeeding:
    @pytest.mark.parametrize("words", sorted(_SEEDS_BY_WORDS))
    def test_equals_pcg64_state(self, words):
        for seed in _SEEDS_BY_WORDS[words]:
            assert max(1, -(-seed.bit_length() // 32)) == words
            assert pcg64_state(seed) == tuple(np.random.PCG64(seed).state["state"].values())

    @settings(max_examples=200, deadline=None, database=None)
    @given(_SEEDS)
    def test_equals_pcg64_state_at_any_seed(self, seed):
        assert pcg64_state(seed) == tuple(np.random.PCG64(seed).state["state"].values())

    def test_array_seeding_agrees(self):
        # signal.pcg64_states hashes many seeds at once, in uint32 arrays
        seeds = [seed for group in _SEEDS_BY_WORDS.values() for seed in group]
        assert pcg64_states(seeds) == [pcg64_state(seed) for seed in seeds]


class TestStandardNormal:
    @pytest.mark.parametrize("words", sorted(_SEEDS_BY_WORDS))
    def test_equals_numpy(self, words):
        for seed in _SEEDS_BY_WORDS[words]:
            assert standard_normal(seed, 3000) == _numpy_normals(seed, 3000)

    @settings(max_examples=100, deadline=None, database=None)
    @given(_SEEDS, st.integers(0, 60))
    def test_equals_numpy_at_any_seed(self, seed, k):
        assert standard_normal(seed, k) == _numpy_normals(seed, k)

    def test_every_layer_wedge_and_tail_are_drawn(self, monkeypatch):
        # 500000 draws at seed 5 reach the rare branches of all 256 layers:
        # the tail beyond layer 0, and the wedge of each other layer, both
        # kept and drawn again
        entered = collections.Counter()   # (layer, a draw came out)
        slow = fluctuation._slow_normal

        def counting(state, inc, idx, rabs, x):
            draw, state = slow(state, inc, idx, rabs, x)
            entered[idx, draw is not None] += 1
            return draw, state

        monkeypatch.setattr(fluctuation, "_slow_normal", counting)
        assert standard_normal(5, 500_000) == _numpy_normals(5, 500_000)
        assert {idx for idx, _ in entered} == set(range(256))
        assert entered[0, True] > 100 and entered[0, False] == 0
        assert sum(n for (idx, kept), n in entered.items() if idx and kept) > 1000
        assert sum(n for (idx, kept), n in entered.items() if idx and not kept) > 1000


class TestZigguratTables:
    _PATH = os.path.join(os.path.dirname(fluctuation.__file__), "data", "ziggurat.txt")
    _SHA256 = "e5a931e4ec0f40c8ec93b02110071f35a2f53ce149a2f21ef846c3d72da33e0f"

    def test_file_is_pinned(self):
        with open(self._PATH, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == self._SHA256
        assert len(ZIGGURAT_KI) == len(ZIGGURAT_WI) == len(ZIGGURAT_FI) == 256

    def test_equal_the_installed_wheel(self, tmp_path):
        # the wheel's static library holds the tables numpy's generator was
        # built from, as read-only data symbols of 256 little-endian words
        archive = os.path.join(os.path.dirname(np.__file__), "random", "lib",
                               "libnpyrandom.a")
        if not os.path.isfile(archive):
            pytest.skip(f"no {archive}")
        if not all(map(shutil.which, ("ar", "nm", "objcopy"))):
            pytest.skip("needs ar, nm and objcopy")
        member = tmp_path / "distributions.o"
        member.write_bytes(subprocess.run(
            ["ar", "p", archive, "src_distributions_distributions.c.o"],
            capture_output=True, check=True).stdout)
        if member.read_bytes()[:4] != b"\x7fELF":
            pytest.skip("the archive's member is not an ELF object")
        rodata = tmp_path / "rodata"
        subprocess.run(["objcopy", "-O", "binary", "--only-section=.rodata",
                        str(member), str(rodata)], check=True)
        data = rodata.read_bytes()
        tables = {}
        for line in subprocess.run(["nm", "-S", str(member)], capture_output=True,
                                   text=True, check=True).stdout.splitlines():
            fields = line.split()
            if fields[-1] in ("ki_double", "wi_double", "fi_double"):
                assert fields[2] == "r", line   # read-only data
                offset, size = int(fields[0], 16), int(fields[1], 16)
                tables[fields[-1]] = data[offset:offset + size]
        assert struct.unpack("<256Q", tables["ki_double"]) == ZIGGURAT_KI
        assert struct.unpack("<256d", tables["wi_double"]) == ZIGGURAT_WI
        assert struct.unpack("<256d", tables["fi_double"]) == ZIGGURAT_FI


_SHIPPED = load_config()


class TestSeriesEqualsBlockRow:
    @pytest.mark.parametrize("acquisition", [
        dict(sample_period=_SHIPPED.sample_period,
             sawtooth_frequency=_SHIPPED.sawtooth_frequency),
        dict(sample_period=0.25, sawtooth_frequency=1.3),
    ], ids=["shipped", "other"])
    @pytest.mark.parametrize("baseline", [0, 511])
    @pytest.mark.parametrize("material", [None, *REFERENCE_LIQUIDS],
                             ids=["air", *REFERENCE_LIQUIDS])
    def test_series_equals_block_row(self, material, baseline, acquisition):
        model = (FluctuationModel(baseline=baseline, **acquisition) if material is None
                 else material_fluctuation_model(material, baseline, **acquisition))
        for seed in (0, 4, 2 ** 40 + 1):
            series = synthesize_series(model, 140.0, seed)
            times, codes = synthesize_block(model, 140.0, [seed], [baseline])
            assert list(series.codes) == codes[0].tolist()
            assert list(series.times) == times.tolist()

    def test_infinite_noise_is_clipped_as_numpy_clips_it(self):
        # an sd near the float limit makes some noise values infinite
        model = FluctuationModel(noise_sd=1e308)
        with np.errstate(over="ignore"):
            _, codes = synthesize_block(model, 70.0, [3], [200])
        assert list(synthesize_series(model, 70.0, 3).codes) == codes[0].tolist()
        assert {0, 511} <= set(codes[0].tolist())
