"""A committed differential: the outputs of the F_n walk, pinned by digest.

Every certificate with n <= 6, written as ``check-involution
--emit-certificate`` writes it, and every field of the fact reports of
``generic_system(n)``, n <= 6, rendered one per line, are hashed with
SHA-256 and compared with the committed digests below.  A change to the
walk, the writer or the auditor must leave them all as they are; one that
alters an output on purpose must edit a digest here, where the diff shows
it.  The n = 4 and n = 5
digests must also equal the older pins: ``CERT_N4_SHA256`` in
test_involution.py and ``CERT_SHA256`` in perfbench/workloads.py, read from
their source.  The n = 7 certificates take too long for this suite; CI
checks them against tests/cert_n7.sha256.
"""

import ast
import hashlib
import json
from pathlib import Path

import pytest

from cramerkit import (
    build_certificate,
    certificate_to_dict,
    check_fact1,
    check_fact2,
    generic_system,
)
from cramerkit.algebra import render_scalar

ROOT = Path(__file__).resolve().parents[1]

# SHA-256 of the certificate of (n, i) as the CLI writes it: indent=2 and a
# final newline
CERT_SHA256 = {
    (1, 1): "bd608c95a6d5156d41a4eb4ac5fafa5de7bf0850561285fea2776f9a8a0fd659",
    (2, 1): "71b8d46ff5d4bdee1fed1258647ba5e8d7cdfb9aa419a04442be5b7b388bd3c6",
    (2, 2): "75e3f0b6b5d96a2f47689e09ac83f049457e584d717676e93122d76be3f294fd",
    (3, 1): "f340c1a141b83a3ba5ccbce9fdfed6c5b8368634b5a5e7c7b52bd347916deaa8",
    (3, 2): "e66ce50d758901e8d1d3119cb1b1a77eed2e4d8752d4605c64761e614039cac4",
    (3, 3): "726e374dbd3428153d9faa53f814124d3f9ac14661ab76e02765d3522edece39",
    (4, 1): "3b82e97ce5a9f4c1744dd47f17dddd38dc392dea3c50ade17541e6599babf587",
    (4, 2): "971d6b9fa392d4562d4302c0e4bd504e2fcbdd5e19a5915229d787de2e609f72",
    (4, 3): "ace3577e5c5ee914591bbcbee2a15abc88741c23c5d4fd48550265c1d0955b30",
    (4, 4): "f042e8263e6b6ad452756a8dd852a01b04b1cc4df172ab9ac157880cc0f10789",
    (5, 1): "d317351c0cf9f9ded3f5f6cff40c95e3a7c4ed2284055ccb1bae93f8be23f73e",
    (5, 2): "16afc2095bbcf54f7265c26c1f041a5271bd091ba84ee4e918d5d52dd0948ff9",
    (5, 3): "6269502765a60c592f931f3752a630d66d37ca1679be949f83d8d853c0ae209e",
    (5, 4): "224a3972ec00142089743382a54236e196a7ba4d32064116733c9f25f0ee12e0",
    (5, 5): "58bdb3403da889ba1fcfe9a46d5dc62ed6ebbe8988197b6f0503b16a5a499e32",
    (6, 1): "481dc8e0f6e4eb963ae66a02f09fecc92bb194729e9b592ab9cf6bc0f817c64d",
    (6, 2): "bc1d1439b79be861525ae9562725679391229b07476d3d23b3b88554828324b0",
    (6, 3): "a2dfdee4afc597d067674c4caac46a4118601f7e40e76b24d14b21d32fe4deab",
    (6, 4): "6978982626c7374bfb79076bc324bf0c3555f5f2bc01e484b22116f6512dffad",
    (6, 5): "46fc2defdbbc31e49f3bae1960457814dc33ec81d76b6a59f28082c348dc39df",
    (6, 6): "41425bc7589b8b5d0f12f12c46bc9965aa4fae1bd100f1abc28ed91f2a66521e",
}

# SHA-256 of the Fact1Report and Fact2Report of (n, i), one "Type.field=text"
# line per field, each value rendered with render_scalar
REPORT_SHA256 = {
    (1, 1): "8e18ff3fa13fc02743bf46975778fc87cd2ba96911331ac93c28c4dca3ddf1e1",
    (2, 1): "d892ef5288ecce51afcb2f0c0c672f5c349f604b26da56cd4a4f3f7ce8e6133c",
    (2, 2): "5adff1acf4fda3b0ba6073e55c17521288bf5ffa8b707cb0fd73e2bc81c39e4a",
    (3, 1): "91cc94de5fb06683bb1e68bdeecf1f3cdd55321f74a7055916ac81f63420f8e4",
    (3, 2): "269e6df447783d79d7d8cf9c374428015553d3c155a204048f9b0626607b119f",
    (3, 3): "073c3ae68a6e38200dde641dee8ad5d7066ebd00889840c93300e861358f719f",
    (4, 1): "141fb3b231508a9b8b0b7518afd60a1efd7e2d42c5c622da6798af10baf63f27",
    (4, 2): "cf8ffd82f26dbc79b82105660b0bfbc5cd879503c1bd9bf2fa56880e67a2115e",
    (4, 3): "98aa4c4384d693e99822b15cf7f9aa2f027797516d9e8a028baa297bb6cde543",
    (4, 4): "c516f70718e56c8e9227d820dcc4492b3bf04329b97f47af84f0a732b5a8fea0",
    (5, 1): "ef3a78e4f268580349fbf37fbdd40a1e6cef0f83d8fafb38aef9e6712111fbd9",
    (5, 2): "909a14f31b10a0394cc77384096220f3a13dd2a7f3db261301f16732bb74b0d7",
    (5, 3): "17180b56810a9f55cab0a9c583d10921ad7de20bf4b9c06342f83ac06de7b655",
    (5, 4): "3c67eb033938e020d11e1fbd2ded75070ae6b950c2c09d69b7685a6e0a988e0d",
    (5, 5): "895c854577e989e19219fc6336dc9878587c512772b6e8effd1f70dcc3877085",
    (6, 1): "d79b73cbb2c5a39a8d799dc831412138186572ad91eee771415d0f41900bd883",
    (6, 2): "31ef2fba6f08334407305a4ad26fa743528c370b34b7b7ceb58154a0383feb77",
    (6, 3): "c0fe8223a050499297cde50733dfddfd31faf166a41e138b6a986fe5c984a26c",
    (6, 4): "b5d2a20c34087dcca54a897d2424af926c583d6fe11b588a0b9aec16cd91a235",
    (6, 5): "6e4ad0092a8a5b94f52a5bbc6b62616342e8ad79070845217dc183232f81762e",
    (6, 6): "ee368684f34b2f97eb70693b555eeef3b65d8055d07c9b9bc00966beee562219",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _pinned(path: Path, name: str) -> dict:
    # the literal value of the top-level assignment to name in path
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {path}")


@pytest.mark.parametrize("n, i", sorted(CERT_SHA256))
def test_certificate_bytes(n, i):
    cert = build_certificate(generic_system(n), i)
    text = json.dumps(certificate_to_dict(cert), indent=2) + "\n"
    assert _sha256(text) == CERT_SHA256[n, i]


@pytest.mark.parametrize("n, i", sorted(REPORT_SHA256))
def test_report_fields(n, i):
    gs = generic_system(n)
    text = "".join(
        f"{type(report).__name__}.{field}={render_scalar(value)}\n"
        for report in (check_fact1(gs, i), check_fact2(gs, i))
        for field, value in report._asdict().items()
    )
    assert _sha256(text) == REPORT_SHA256[n, i]


def test_digests_agree_with_the_older_pins():
    n4 = _pinned(ROOT / "tests" / "test_involution.py", "CERT_N4_SHA256")
    n5 = _pinned(ROOT / "perfbench" / "workloads.py", "CERT_SHA256")
    assert n4 == {i: CERT_SHA256[4, i] for i in range(1, 5)}
    assert n5 == {i: CERT_SHA256[5, i] for i in range(1, 6)}
