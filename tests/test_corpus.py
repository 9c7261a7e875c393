"""Tests for the shipped verification corpus."""

import hashlib

import numpy as np
import pytest

from dnclab.analysis import CONSTANT_PAD, ZERO_PAD
from dnclab.corpus import Instance, control_instances, corpus_instances
from dnclab.linalg import INF, ONE

from oracles import is_rate_instance


class TestCorpusShape:
    def test_fifty_unique_labels(self):
        instances = corpus_instances()
        assert len(instances) == 50
        labels = [i.label for i in instances]
        assert len(set(labels)) == 50

    def test_geometry_mix(self):
        kinds = {"plain": 0, "pooled": 0, "conv": 0}
        for inst in corpus_instances():
            seq = inst.build()
            if seq.pooling.mu:
                kinds["pooled"] += 1
            elif seq.masks is not None:
                kinds["conv"] += 1
            else:
                kinds["plain"] += 1
        assert kinds["pooled"] >= 8
        assert kinds["conv"] >= 12
        assert kinds["plain"] >= 20

    def test_activation_mix(self):
        names = {inst.act_name for inst in corpus_instances()}
        assert names >= {"relu", "prelu", "selu", "sigmoid"}

    def test_constant_pad_instances_use_sup_norm(self):
        for inst in corpus_instances():
            if inst.extension == CONSTANT_PAD:
                assert inst.p.is_inf

    def test_rate_instances_flagged(self):
        rated = [inst for inst in corpus_instances() if is_rate_instance(inst)]
        assert len(rated) == 10
        for inst in rated:
            assert inst.gen.family == "exp_decay"
            assert inst.gen.rate == 0.5
            assert inst.omega_target == 0.6

    def test_instances_rebuild_identically(self):
        inst = corpus_instances()[0]
        a = inst.build()
        b = inst.build()
        assert np.array_equal(a.layer(3)[0], b.layer(3)[0])

    def test_domain_matches_input_dim(self):
        for inst in corpus_instances():
            seq = inst.build()
            assert inst.domain().dim == seq.width(0)


class TestControls:
    def test_two_supercritical_controls(self):
        controls = control_instances()
        assert len(controls) == 2
        families = {c.gen.family for c in controls}
        assert families == {"diverging", "conv"}
        for c in controls:
            assert c.omega_target > 1.0


# SHA-256 of ``repr(corpus_instances() + control_instances())``: every field of
# all 52 instances (label, generator spec, activation and its parameters, p,
# extension, omega target), in order.  Re-freeze only when the corpus is
# meant to change.
CORPUS_DIGEST = "1ecfdb5a1cda71cf2b1d8594328bbe1f8d0a28d58f5fcbff23132784cd13ccea"


def test_corpus_fields_are_pinned():
    instances = corpus_instances() + control_instances()
    assert len(instances) == 52
    digest = hashlib.sha256(repr(instances).encode("utf-8")).hexdigest()
    assert digest == CORPUS_DIGEST
