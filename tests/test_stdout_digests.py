"""stdout of classify, eg and report is pinned byte for byte.

The digests are sha256 of the bytes each command writes, on every fixture
and on three seeded quivers built here rather than in specs/, so the CLI
fuzz test does not read them: an A7 with 1430 hearts, a D5 and an E7 with
4160 hearts.  The fixture digests were taken when an empty cell's proof was
still 2^n per-branch certificates, not one, the A7 and D5 ones while the rational
kernels came from a Fraction rref, the E7 one while the LP still built its
witnesses in Fractions, and the `eg` ones (dot, and --fold json) while the
tilts had separate forward and backward bodies and the folded graph its
own type.  Each guards that a later rewrite leaves every printed byte
alone.  A change that alters output on purpose updates them and says so.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from foldstab.cli import main
from properties import seeded_dynkin_spec

SPECS = Path(__file__).resolve().parent.parent / "specs"

COMMANDS = {
    "classify": ("classify",),
    "classify-fold-json": ("classify", "--fold", "--format", "json"),
    "eg-dot": ("eg", "--format", "dot"),
    "eg-fold-json": ("eg", "--fold", "--format", "json"),
    "report-table": ("report", "--format", "table"),
}

DIGESTS = {
    ("a1_trivial", "classify"): "0f4da4b924b1f8ed203d973e00c725e1b9c0dc7e0e3a4ea6f66e9deee98af026",
    ("a1_trivial", "classify-fold-json"): "4191a9c663f5fea96cefc92c6cc3ad695c0bce70652d087237082c59d7f957f4",
    ("a1_trivial", "eg-dot"): "d22345c1ceaeade86425ae747d6979dbb2df19d8bb92d60bda3630fdd4ec5cbe",
    ("a1_trivial", "eg-fold-json"): "989db20dd7be75da93ebee643d8be761729fb75788a5b7db2922772b8181b7ae",
    ("a1_trivial", "report-table"): "883e5dab4a94d111839f9e597fce2c07d167b41fe35885c25431b07736b936f3",
    ("a2_chain", "classify"): "3cb0921ef25452b6617b072f203f65736c99be2f491c434d9b67149ab82012d2",
    ("a2_chain", "classify-fold-json"): "34a59c5416e98eb7238a4839aece992031b2fdcfd614d6f92c13e872e97850e7",
    ("a2_chain", "eg-dot"): "0899ac4a2e68dfb3c5fd408e8161c0fc3c2e9e2575ab4762bebae763710c3d05",
    ("a2_chain", "eg-fold-json"): "bcea43cbeb0eb709529e86bcab4a861e0591e51b955607089d3173c5d0368380",
    ("a2_chain", "report-table"): "8b55d3a25409e918ff0f0608fd1f619ff464c675e5916638c71efee54b1dda4d",
    ("a3_flip", "classify"): "cf40adba32945cd17b2b3e60c6338c93a0dff0a3fc80f5243a57ff4b44e6d442",
    ("a3_flip", "classify-fold-json"): "276238c5bc2fc952b9d9873afbde6d5c936dca7ac8c64d46aef0dbf940fb30f1",
    ("a3_flip", "eg-dot"): "50bed18f151bfe2f7089bd1e7061983a79cc1c9e7e6d66d1e144f0b9b4ad7b62",
    ("a3_flip", "eg-fold-json"): "37bb58c77a7cc50153d20d97f50e83341322d87e02b9253fea85c20901ff16ec",
    ("a3_flip", "report-table"): "79ceb068b56b08a20f63bbaf9c96e0762865e8f622947f3379f805d434414711",
    ("a5_flip", "classify"): "b4175db9fb42490b0b051871cb4fe0e470e6f59a12b76347d9f08cc353b04e7e",
    ("a5_flip", "classify-fold-json"): "18f55850e575aa9f46571019a47af53b60dc6b7e5ca3b946d10a628b41ba5a97",
    ("a5_flip", "eg-dot"): "c04536a6bc4f6d1a74e6fda495ae738558585ad110e6ace6204ff5c04bcc5e12",
    ("a5_flip", "eg-fold-json"): "8097a340fed5c315941aa46853cc5ea57896956ea8d58212c97a408791d14d88",
    ("a5_flip", "report-table"): "7c927f00b96e9196e86445e1ab29b1b1606f081aa9dc89e613501ca762d8f5e7",
    ("d4_swap", "classify"): "36450720aa788d49823c15b01355e2f845576df1ef4bacfd3b83c8582fc6d399",
    ("d4_swap", "classify-fold-json"): "078920b6441d6c13458e800812e1f38d3d4e6aad7d71e378b3d1bf299a3ce705",
    ("d4_swap", "eg-dot"): "c010dc126570033970aa41f9f8376b7d35b82779e40730458c32858835360adc",
    ("d4_swap", "eg-fold-json"): "2ca98dcc6bd429f629594c6cb31db7e92e29fbd7f9bab47463155b4a58c474dd",
    ("d4_swap", "report-table"): "1e304f8df80c70b2f3f1cc12b9d5e4e9241d6a41703771c05e60b88ca5fd81f3",
    ("d4_triality", "classify"): "3b38805f5842cd25055b49d7e779a6224f1e13d62ca09bdecd298f4c1659ed06",
    ("d4_triality", "classify-fold-json"): "5f91e04d3ac67c426d1a8fc3d4357472e91ab777ae400901e0a695926ebfb84a",
    ("d4_triality", "eg-dot"): "7b52b309804fc781582b0e1f843cf83241a94cc389e8202df59bfc575c1d9467",
    ("d4_triality", "eg-fold-json"): "e5ab628da688ddd252f9e6118ed02baf5f1db9b328ecdb0c9192e869eb547a8c",
    ("d4_triality", "report-table"): "5638d4fa15781c3563975d97fed613e7edecbdcb502549f21f437d5b7f0418b6",
    ("e6_fold", "classify"): "73d9c5c788d105fe40cf5ab2b104751880e2a64c2a350d2b2e7d43db4e4b4b5e",
    ("e6_fold", "classify-fold-json"): "1a4d8710625ba03cbeb81b090086ce7940e01cd3d997c3b404f560f6d5c29ed7",
    ("e6_fold", "eg-dot"): "d83c2f470938307981c75e71196e8921a41ac2fa3d94016ece4838c2bd0b0ad8",
    ("e6_fold", "eg-fold-json"): "6846f3439d0a63fe4aa673642d27378394ef9c11cbc0f14b7095179fbb27911b",
    ("e6_fold", "report-table"): "0acd96b06276a103c540e3da014b3d1bc12729f9c0bfc3cabeb82cc33ae01280",
}


@pytest.mark.parametrize("spec,command", sorted(DIGESTS))
def test_stdout_matches_pinned_digest(capsys, spec, command) -> None:
    code = main([*COMMANDS[command][:1], str(SPECS / f"{spec}.toml"), *COMMANDS[command][1:]])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[spec, command]


def test_every_fixture_is_pinned() -> None:
    assert {spec for spec, _ in DIGESTS} == {p.stem for p in SPECS.glob("*.toml")}


# (family, rank, orientation seed) -> sha256 of `classify` stdout.
SEEDED_CLASSIFY_DIGESTS = {
    ("A", 7, 7): "26b18fc6723d196729696a622facc7e3309903ae607eabc32f2ab4fe700dd0de",
    ("D", 5, 5): "8a78e8fdfe199b95040d759e00de3db79d9dc546ec5c118b6c3352840d2dda98",
    ("E", 7, 1): "289ba1b4b906986b86a4bfb293dfb5a8752dde85cc808a1b6d12157812ac3dc3",
}


@pytest.mark.parametrize("family,rank,seed", sorted(SEEDED_CLASSIFY_DIGESTS))
def test_seeded_classify_matches_pinned_digest(capsys, tmp_path, family, rank, seed) -> None:
    spec = tmp_path / f"{family}{rank}.toml"
    spec.write_text(seeded_dynkin_spec(family, rank, seed), encoding="utf-8")
    code = main(["classify", str(spec)])
    out = capsys.readouterr().out
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == SEEDED_CLASSIFY_DIGESTS[family, rank, seed]
