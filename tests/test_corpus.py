"""The output corpus (scripts/corpus.py): every group prints what its recorded
digest says, so a change that claims byte-identical output is checked by it."""

import importlib.util
import os
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "corpus.py")
spec = importlib.util.spec_from_file_location("corpus", SCRIPT)
corpus = importlib.util.module_from_spec(spec)
spec.loader.exec_module(corpus)


def test_every_corpus_group_matches_its_recorded_digest():
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert corpus.mismatches() == []
    # the run fixes the digit limit for itself only
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
