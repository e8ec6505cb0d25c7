"""Every certificate of the golden corpus (tests/golden.py) is byte for
byte the one that tests/golden_certificates.json pins."""

import json

from golden import GOLDEN, certificate_text, corpus, digest


def test_certificates_match_the_golden_file():
    pinned = json.loads(GOLDEN.read_text())
    seen = []
    for label, g, a, params in corpus():
        seen.append(label)
        text = certificate_text(g, a, params)
        if digest(text) != pinned.get(label):
            raise AssertionError(
                f"first changed certificate: {label}\n"
                f"pinned SHA-256 {pinned.get(label)}, now {digest(text)}\n"
                f"its text now:\n{text}"
                f"the pinned text: PYTHONPATH=src python tests/golden.py "
                f"{label!r}, run at the commit that wrote {GOLDEN.name}")
    assert len(set(seen)) == len(seen), "the corpus repeats a label"
    assert sorted(seen) == sorted(pinned), "the corpus and the file differ"
