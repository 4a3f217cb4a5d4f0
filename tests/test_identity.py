import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _identity(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # write nothing into tools/
    # importing the script sets OPENBLAS_NUM_THREADS if unset; restore it afterwards
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    spec = importlib.util.spec_from_file_location(
        "identity", os.path.join(ROOT, "tools", "identity.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_digests_repeat_and_names_are_unique(monkeypatch, tmp_path):
    identity = _identity(monkeypatch)
    names = [name for name, _ in identity.ARTIFACTS]
    assert len(set(names)) == len(names)
    artifact = dict(identity.ARTIFACTS)["clip_loss.toy"]
    runs = []
    for k in range(2):
        work = tmp_path / str(k)
        work.mkdir()
        runs.append(list(identity.digests([("clip_loss.toy", artifact)], str(work))))
    assert runs[0] == runs[1]
    assert [name for name, _ in runs[0]] == ["clip_loss.toy.loss", "clip_loss.toy.grads"]
    assert all(len(digest) == 64 for _, digest in runs[0])
