"""The CLI's transcripts, pinned by digest.

A fixed corpus of commands runs in-process through ``cli.main``: solve and
det on rational and symbolic documents, verify-identity, check-involution
with and without a certificate, and validate-certificate on valid files,
on every flaw of ``PARSE_FLAWS`` and on every flaw of ``AUDIT_FLAWS`` that
edits the file alone.  Each command's exit code and the SHA-256 of its
stdout and of its stderr (first 16 hex digits, "" for an empty stream) are
compared with the committed values below, keyed by the command line, so a
diff names the command and the stream that changed.  Every file is named
relative to a fresh working directory, and the writer's pid in a
temporary file's name is written as ``<pid>`` before hashing.  A change
that alters a transcript on purpose edits its entry here, where the diff
shows it.
"""

import hashlib
import json
import os

from cramerkit import build_certificate, certificate_to_dict, cli, generic_system

from test_involution import AUDIT_FLAW_IDS, AUDIT_FLAWS, PARSE_FLAW_IDS, PARSE_FLAWS


def _doc(rows, rhs):
    return {
        "n": len(rows),
        "mode": "rational",
        "A": [[str(x) for x in row] for row in rows],
        "b": [str(x) for x in rhs],
    }


DOCUMENTS = {
    "int2": _doc([[1, 1], [1, -1]], [3, 1]),
    "frac3": _doc([["1/2", 2, -3], [4, "-5/3", 6], [7, 8, "9/4"]], ["1/3", -2, 5]),
    "sym2": {"n": 2, "mode": "symbolic"},
    "sym3": {"n": 3, "mode": "symbolic"},
    "sym8": {"n": 8, "mode": "symbolic"},
    "singular": _doc([[1, 1], [1, 1]], [1, 2]),
    "eye10": _doc(
        [[int(r == c) for c in range(10)] for r in range(10)], list(range(1, 11))
    ),
    "unknown-field": {"n": 1, "mode": "rational", "A": [["1"]], "b": ["1"], "x": 1},
    "float": {"n": 1, "mode": "rational", "A": [[0.5]], "b": ["1"]},
}

COMMANDS = [
    *(
        ["solve", "--input", f"{name}.json", *flag]
        for name in ("int2", "frac3", "sym2")
        for flag in ([], ["--json"])
    ),
    ["solve", "--input", "singular.json"],
    ["solve", "--input", "eye10.json"],
    ["solve", "--input", "frac3.json", "--max-n", "2"],
    ["solve", "--input", "unknown-field.json"],
    ["solve", "--input", "float.json"],
    ["solve", "--input", "not-json.json"],
    ["solve", "--input", "missing.json"],
    *(
        ["det", "--input", f"{name}.json", *method]
        for name in ("frac3", "sym3")
        for method in ([], ["--method", "leibniz"], ["--method", "cofactor"])
    ),
    ["det", "--input", "frac3.json", "--method", "bareiss"],
    ["det", "--input", "sym3.json", "--method", "bareiss"],
    ["det", "--input", "sym8.json", "--method", "cofactor"],
    ["det", "--input", "singular.json"],
    ["verify-identity", "--n", "3"],
    ["verify-identity", "--n", "4", "--i", "2"],
    ["verify-identity", "--n", "3", "--i", "5"],
    ["verify-identity", "--n", "0"],
    ["verify-identity", "--n", "12"],
    ["check-involution", "--n", "1", "--i", "1"],
    ["check-involution", "--n", "3", "--i", "2"],
    ["check-involution", "--n", "3", "--i", "2", "--emit-certificate", "c32.json"],
    ["check-involution", "--n", "2", "--i", "1", "--emit-certificate", "no/c.json"],
    ["check-involution", "--n", "3", "--i", "4"],
    ["check-involution", "--n", "10", "--i", "1"],
    *(
        ["validate-certificate", "--input", f"cert-{n}-{i}.json"]
        for n in (1, 2, 3)
        for i in range(1, n + 1)
    ),
    ["validate-certificate", "--input", "cert-3-1.json", "--max-n", "2"],
    ["validate-certificate", "--input", "missing.json"],
    *(
        ["validate-certificate", "--input", f"parse-{name}.json"]
        for name in PARSE_FLAW_IDS
    ),
]


class _Recorder:
    # stands in for pytest's monkeypatch: a flaw that patches the module
    # is not a flaw of the file alone
    patched = False

    def setattr(self, *args, **kwargs):
        self.patched = True


def _write_files(tmp_path):
    # the corpus's input files; returns the file-only audit flaws' names
    for name, doc in DOCUMENTS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "not-json.json").write_text("{not json", encoding="utf-8")
    certs = {
        (n, i): certificate_to_dict(build_certificate(generic_system(n), i))
        for n in (1, 2, 3)
        for i in range(1, n + 1)
    }
    for (n, i), cert in certs.items():
        (tmp_path / f"cert-{n}-{i}.json").write_text(json.dumps(cert), encoding="utf-8")
    for name, (flaw, _) in zip(PARSE_FLAW_IDS, PARSE_FLAWS):
        data = json.loads(json.dumps(certs[2, 1]))
        flaw(data)
        (tmp_path / f"parse-{name}.json").write_text(json.dumps(data), encoding="utf-8")
    file_only = []
    for name, (flaw, _) in zip(AUDIT_FLAW_IDS, AUDIT_FLAWS):
        data, patches = json.loads(json.dumps(certs[3, 1])), _Recorder()
        flaw(data, patches)
        if not patches.patched:
            file_only.append(name)
            path = tmp_path / f"audit-{name}.json"
            path.write_text(json.dumps(data), encoding="utf-8")
    return file_only


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16] if text else ""


def _transcripts(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    file_only = _write_files(tmp_path)
    commands = [
        *([argv, None] for argv in COMMANDS),
        *(
            [["validate-certificate", "--input", f"audit-{name}.json"], None]
            for name in file_only
        ),
    ]
    sides = cli._identity_sides

    def x0_off_by_one(sys, i, xs):
        # row 2 is checked against X_0 + 1, so its right side gains b[2]
        return sides(sys, i, [xs[0] + 1, *xs[1:]] if i == 2 else xs)

    commands.append([["verify-identity", "--n", "2"], x0_off_by_one])
    capsys.readouterr()
    transcripts = {}
    for argv, identity_sides in commands:
        with monkeypatch.context() as m:
            label = " ".join(argv)
            if identity_sides is not None:
                m.setattr(cli, "_identity_sides", identity_sides)
                label = "[x0 off by one in row 2] " + label
            code = cli.main(argv)
        out, err = capsys.readouterr()
        err = err.replace(f".{os.getpid()}.tmp", ".<pid>.tmp")
        assert "Traceback" not in err, label
        transcripts[label] = (code, _digest(out), _digest(err))
    return transcripts


# exit code, stdout digest, stderr digest
TRANSCRIPTS = {
    "solve --input int2.json": (0, "7898e35fff044021", ""),
    "solve --input int2.json --json": (0, "b12d62e836dc921d", ""),
    "solve --input frac3.json": (0, "6019d84a2e014507", ""),
    "solve --input frac3.json --json": (0, "94ea118e4c562b1a", ""),
    "solve --input sym2.json": (0, "348504f1b4259fc3", ""),
    "solve --input sym2.json --json": (0, "7a11891b6c6ae1b7", ""),
    "solve --input singular.json": (3, "", "0b54fa3a3881443e"),
    "solve --input eye10.json": (4, "", "ec539b5f4b9e5bb7"),
    "solve --input frac3.json --max-n 2": (4, "", "c52471956c3e6a34"),
    "solve --input unknown-field.json": (2, "", "f1d6567ef075fb6a"),
    "solve --input float.json": (2, "", "a390f983b027cddd"),
    "solve --input not-json.json": (2, "", "ec7bf203e80d2cd5"),
    "solve --input missing.json": (2, "", "e088467e28c9ab0f"),
    "det --input frac3.json": (0, "108e93bd45437b45", ""),
    "det --input frac3.json --method leibniz": (0, "9ed61ff5599cf074", ""),
    "det --input frac3.json --method cofactor": (0, "9075c33e71d499b0", ""),
    "det --input sym3.json": (0, "5093296c5f02e203", ""),
    "det --input sym3.json --method leibniz": (0, "a407b4539cbbd68a", ""),
    "det --input sym3.json --method cofactor": (0, "a282dd35658bc010", ""),
    "det --input frac3.json --method bareiss": (0, "fac0c8a4abbbc22e", ""),
    "det --input sym3.json --method bareiss": (2, "", "81e0bfd747191d86"),
    "det --input sym8.json --method cofactor": (4, "", "eb0781e3c966f60a"),
    "det --input singular.json": (0, "23e1f8a142d782fb", ""),
    "verify-identity --n 3": (0, "9a9667381a196e52", ""),
    "verify-identity --n 4 --i 2": (0, "104ec28e07050e9a", ""),
    "verify-identity --n 3 --i 5": (2, "", "c2497ed5fb7f2533"),
    "verify-identity --n 0": (2, "", "7c2b1a6f7a057d77"),
    "verify-identity --n 12": (4, "", "af7d8fc64d3c486e"),
    "check-involution --n 1 --i 1": (0, "2c6478b8caf6e350", ""),
    "check-involution --n 3 --i 2": (0, "84ee23c104c24624", ""),
    "check-involution --n 3 --i 2 --emit-certificate c32.json":
        (0, "b143fbce0aa4df89", ""),
    "check-involution --n 2 --i 1 --emit-certificate no/c.json":
        (1, "5aa448f6f7660892", "b36d8001943cf785"),
    "check-involution --n 3 --i 4": (2, "", "4e38628c6d3b9922"),
    "check-involution --n 10 --i 1": (4, "", "ec539b5f4b9e5bb7"),
    "validate-certificate --input cert-1-1.json": (0, "e75110943ce9ed41", ""),
    "validate-certificate --input cert-2-1.json": (0, "6d036e3eebe61bf5", ""),
    "validate-certificate --input cert-2-2.json": (0, "1f6ed2bb66114945", ""),
    "validate-certificate --input cert-3-1.json": (0, "fc321d3091125f79", ""),
    "validate-certificate --input cert-3-2.json": (0, "f7d85ee5cd275dc1", ""),
    "validate-certificate --input cert-3-3.json": (0, "a337b2529dc7e482", ""),
    "validate-certificate --input cert-3-1.json --max-n 2": (4, "", "c52471956c3e6a34"),
    "validate-certificate --input missing.json": (2, "", "e088467e28c9ab0f"),
    "validate-certificate --input parse-top-level.json": (2, "", "a5858b4f7f3c7de8"),
    "validate-certificate --input parse-good-entry.json": (2, "", "df94cc096f0f8059"),
    "validate-certificate --input parse-bad-pair.json": (2, "", "b32ac6a92f0ec782"),
    "validate-certificate --input parse-not-an-object.json":
        (2, "", "b7ba53a01f8f48f6"),
    "validate-certificate --input parse-n-0.json": (2, "", "b1a3b10e6618796a"),
    "validate-certificate --input parse-n-minus-1.json": (2, "", "0da31338d2cdfa2f"),
    "validate-certificate --input parse-i-0.json": (2, "", "6c8f75bc90a44ed0"),
    "validate-certificate --input parse-i-past-n.json": (2, "", "8526270aef315e20"),
    "validate-certificate --input parse-pi-repeated.json": (2, "", "c521546fdbbc52d7"),
    "validate-certificate --input parse-pi-out-of-range.json":
        (2, "", "772c82755eab5d9c"),
    "validate-certificate --input parse-pi-empty.json": (2, "", "55be9037f48bb170"),
    "validate-certificate --input parse-sigma-repeated.json":
        (2, "", "3956b8ca3be9172c"),
    "validate-certificate --input parse-j-past-n.json": (2, "", "f638fa80a7b9c2dc"),
    "validate-certificate --input parse-j2-0.json": (2, "", "a779bc5fc599e405"),
    "validate-certificate --input parse-good-not-array.json":
        (2, "", "055c74973c1660b6"),
    "validate-certificate --input parse-pairs-not-array.json":
        (2, "", "89d1c8de276ffc1a"),
    "validate-certificate --input parse-pi-not-array.json": (2, "", "1455b899e5c6df51"),
    "validate-certificate --input parse-sigma-not-array.json":
        (2, "", "ac992f6ab7211f63"),
    "validate-certificate --input parse-pi-float.json": (2, "", "15b4f806c24e05dc"),
    "validate-certificate --input parse-n-not-int.json": (2, "", "fa391ba0066b5af6"),
    "validate-certificate --input parse-weight-not-string.json":
        (2, "", "aa611d134d792968"),
    "validate-certificate --input audit-good-count.json": (1, "", "7a18c34663e1feb9"),
    "validate-certificate --input audit-pair-count.json": (1, "", "aa663fbd14be2f68"),
    "validate-certificate --input audit-bad-as-good.json": (1, "", "e545b8086d32a804"),
    "validate-certificate --input audit-good-swap.json": (1, "", "ddb786b61dbbd1e4"),
    "validate-certificate --input audit-good-repeat.json": (1, "", "eebc04eefcd92496"),
    "validate-certificate --input audit-good-weight.json": (1, "", "2e34a4856c35277a"),
    "validate-certificate --input audit-fact1-sum.json": (1, "", "12e9a5b1dc32d2c9"),
    "validate-certificate --input audit-b-times-x0.json": (1, "", "f8b7766496cc6a8f"),
    "validate-certificate --input audit-fact1-order.json": (1, "", "12e9a5b1dc32d2c9"),
    "validate-certificate --input audit-good-in-pair.json": (1, "", "3c8368e3fd76382c"),
    "validate-certificate --input audit-pair-flip.json": (1, "", "d779ab12e9305e72"),
    "validate-certificate --input audit-pair-swap.json": (1, "", "6eada7b8d75ec081"),
    "validate-certificate --input audit-pair-repeat.json": (1, "", "90b32b19a6058aff"),
    "validate-certificate --input audit-not-image.json": (1, "", "254ed5286dcbfe8b"),
    "validate-certificate --input audit-pair-weight.json": (1, "", "b875fd058d8739de"),
    "validate-certificate --input audit-fact2-sum.json": (1, "", "50efa61d557488b1"),
    "validate-certificate --input audit-good-size.json": (1, "", "7bad639da00bd01e"),
    "validate-certificate --input audit-good-size-i-3.json":
        (1, "", "7bad639da00bd01e"),
    "validate-certificate --input audit-pair-size.json": (1, "", "7789ebd6ef354d66"),
    "[x0 off by one in row 2] verify-identity --n 2": (1, "d190087b7ff1aa6e", ""),
}


def test_transcripts_are_pinned(tmp_path, capsys, monkeypatch):
    got = _transcripts(tmp_path, capsys, monkeypatch)
    changed = {
        label: (TRANSCRIPTS.get(label), value)
        for label, value in got.items()
        if TRANSCRIPTS.get(label) != value
    }
    assert not changed
    assert got.keys() == TRANSCRIPTS.keys()
    assert {code for code, _, _ in got.values()} == {0, 1, 2, 3, 4}
