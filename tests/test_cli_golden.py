"""Byte-level regression for the command line: the exit code and the sha256
of stdout for every subcommand in every output format, pinned to the output
of a known-good build.

Input files are written under fixed relative names into a temporary working
directory, so the table and map paths echoed in sequence ids and in `meta`
are the same on every machine.
"""

from __future__ import annotations

import hashlib
from decimal import Context, getcontext, localcontext

import pytest

from divseq.cli import main

FILES = {
    "vals.txt": "1\n3\n7\n15\n",  # 2**n - 1 while it lasts
    "tent.map": "domain 0 1\n0 0\n1/2 1\n1 0\n",
}

CASES = {
    "seq-theorem4": ("seq", "theorem4", "--j", "3", "--k", "-2", "--m", "5",
                     "--n-max", "30"),
    "seq-theorem5-phi": ("seq", "theorem5-phi", "--j", "3", "--n-max", "60"),
    "seq-theorem5-psi": ("seq", "theorem5-psi", "--j", "4", "--n-max", "40"),
    "seq-constant": ("seq", "constant", "--value", "-4", "--n-max", "3"),
    "seq-table": ("seq", "table", "--file", "vals.txt", "--n-max", "4"),
    "verify-pass": ("verify", "lin(3,theorem5phi(2),-2,theorem4(3,0,1))",
                    "--mode", "phi1-mod-n", "--n-max", "30"),
    "verify-phi2-pass": ("verify", "dilateodd(theorem5psi(2),3)",
                         "--mode", "phi2-mod-2n", "--n-max", "12"),
    "verify-fail": ("verify", "theorem4(2,0,1)", "--mode", "phi2-mod-2n",
                    "--n-max", "12"),
    "verify-table-exhausted": ("verify", "table(vals.txt)",
                               "--mode", "phi1-mod-n", "--n-max", "6"),
    "oracle-fixed": ("oracle", "--j", "3", "--n-max", "6"),
    "oracle-antifixed": ("oracle", "--j", "3", "--n-max", "6",
                         "--equation", "antifixed"),
    "oracle-map-file": ("oracle", "--map-file", "tent.map", "--n-max", "5"),
    "crosscheck-j2": ("crosscheck", "--j", "2", "--n-max", "5"),
    "crosscheck-j3": ("crosscheck", "--j", "3", "--n-max", "6"),
    "crosscheck-piece-cap": ("crosscheck", "--j", "3", "--piece-cap", "2000",
                             "--n-max", "9"),
    "conjecture": ("conjecture", "--j", "3", "--n-max", "20"),
    # -1 * 0 is a negative zero in some number types; q must print as 0
    "verify-lin-signed-zero": ("verify", "lin(-1,const(0),-1,const(0))",
                               "--mode", "phi1-mod-n", "--n-max", "2"),
    "verify-prod-signed-zero": ("verify", "prod(const(-3),const(0))",
                                "--mode", "phi2-mod-2n", "--n-max", "2"),
}

# (case, format) -> (exit code, sha256 of stdout)
GOLDEN = {
    ("seq-theorem4", "csv"): (
        0, "adf405ad2b80cfd32884a549d69f292be1928dfeb36f2e51f5d22e72fd7f9e8f"),
    ("seq-theorem4", "tsv"): (
        0, "d51a9a8654b8a1d0d399c6a82aaa38c46c8f9ff2ded98e8eb1078040b2a96e85"),
    ("seq-theorem4", "json"): (
        0, "318343b8aeb62c5db7d1a038d6ec820fcb9f9a301ca6eec33c21634d5e228652"),
    ("seq-theorem5-phi", "csv"): (
        0, "eb2132b1159f05fa1473d93afbb3784a4abf9af86f5abd23ac45b7660df1242e"),
    ("seq-theorem5-phi", "tsv"): (
        0, "4546eb63a823139ba0bd2c0afa428f85411a1c4e51d7f8df3a1b678c794f202d"),
    ("seq-theorem5-phi", "json"): (
        0, "006256240d65a56ae83d2e31b41658976e6c6c4e34b9a33aee0ed1a42188d35c"),
    ("seq-theorem5-psi", "csv"): (
        0, "0084212f438303ee3e922f159aad62eaf46429c39d8d139e334ea67e6dff5332"),
    ("seq-theorem5-psi", "tsv"): (
        0, "6749133b128d11d2924fc5ecfc6e2a1ad66e43013fa85a1af53c2294825ca6a4"),
    ("seq-theorem5-psi", "json"): (
        0, "996fc7e07f52a03bc8bc82785cfb6e420775cc04b15ec94bb381f9ba8fbab24c"),
    ("seq-constant", "csv"): (
        0, "7c92413a54676ee7983c78f017f3303e8d9381774d5a5670630482a45e9ae37d"),
    ("seq-constant", "tsv"): (
        0, "c6da189add0e318351b996b56418cff1b14e9e378e9bad7c7ee41aa8ef5e3617"),
    ("seq-constant", "json"): (
        0, "9e563e64263af6ddab34a9c8ef2b88c792b192fa9b5d9f980996a3816f9ec227"),
    ("seq-table", "csv"): (
        0, "da0cff23566e6bd388198dd25cdc0958b9e984bde54b0647610e20c424faa270"),
    ("seq-table", "tsv"): (
        0, "c307d966acd8654361544760d971f20feeed1dabbac001c0dd4b024708d0f061"),
    ("seq-table", "json"): (
        0, "00f09b119c97bed904ed76de4a7693e21cc7a293e3fe5673f8a37512c1d8f277"),
    ("verify-pass", "csv"): (
        0, "b15609f5ef1d2af51c60081e740c0c433e4d4ddffd68bcfe849bad39ca8fdd51"),
    ("verify-pass", "tsv"): (
        0, "5842a91b0e194832a41b9b80c5c7ba4aa1c357b7e509f0b4e6a4cfa263b7d802"),
    ("verify-pass", "json"): (
        0, "8f871603bbe8c0b762476fad60161661ef6dabf80d23ac45ad212b46870eaefb"),
    ("verify-phi2-pass", "csv"): (
        0, "05e2b3a053481c6ae6081085312cc5b3fd32aabd8e07fd88ac0428891f461004"),
    ("verify-phi2-pass", "tsv"): (
        0, "db256f226c35eb25223a44acd16f4017cdfd45afb519d67cf87550f5897005a9"),
    ("verify-phi2-pass", "json"): (
        0, "b03bbe5eee580108d89f53fc7433acc5578148cfb76fba7ac10512aa7790b05a"),
    ("verify-fail", "csv"): (
        1, "81a915a1cb2f4deb8b5b18514d03f3849bd7de78f96a666548cb1b67cd1408b5"),
    ("verify-fail", "tsv"): (
        1, "5ad236185bf1143c238af054391b9324bbb6579a4b52c468bbbd981c51c3f44e"),
    ("verify-fail", "json"): (
        1, "f073c2273c7d70901f0309da119d15e747ff97bd238e790067c60e48e25deb6d"),
    ("verify-table-exhausted", "csv"): (
        1, "30a3d06fe3e1102426dd4dd5d3bf8186fe49260e5ce24bee6f2d1057390537f8"),
    ("verify-table-exhausted", "tsv"): (
        1, "577682c50544dbe245f76952d48bc6f5d05bc47cdd2c2b512e90c2b8924a1806"),
    ("verify-table-exhausted", "json"): (
        1, "183508ef441af67c0b7f234d51fa5a0dfeb01752c0db65c817dda313a5b15f84"),
    ("oracle-fixed", "csv"): (
        0, "4ba966479123b55a4ce8715e6a0ebd47c616a0fbe8534652d01429cadf5bd75d"),
    ("oracle-fixed", "tsv"): (
        0, "894191a6337e780aa43f1b2b8f6809efc9b37bd13b3359a0d6a30c0b9b50b6cc"),
    ("oracle-fixed", "json"): (
        0, "52525bd509ca7e4ea25aa5c9dd9b663504f82f082b81c88561cb01473af100ad"),
    ("oracle-antifixed", "csv"): (
        0, "5e74f42f320c528a3068cff6d0b749fb9bc1711b76a1f5f420053d3c0a43262d"),
    ("oracle-antifixed", "tsv"): (
        0, "8db4fb7d249af932009c56580dc0505a025d1809d4b312ec0ee9ffff731c961e"),
    ("oracle-antifixed", "json"): (
        0, "e94e20475475ae6654185b405a532b97bf1c0a5a0c1d31371fea9243b36d43bd"),
    ("oracle-map-file", "csv"): (
        0, "3e1e5d04e25d0dc3e933fa3328eeb9829e2243cefade010669efa23257fed639"),
    ("oracle-map-file", "tsv"): (
        0, "cd1ec6607ac27bc094484fb293199a1056a277a725e352bc36868a0662c7e8c4"),
    ("oracle-map-file", "json"): (
        0, "8a20a09595d81b622120e776c2f7295e94af9e4245296db71cbf699de5156313"),
    ("crosscheck-j2", "csv"): (
        0, "4ec8aeeb48d6114442da42c449d661ffd309c929e225671a5bf7af17642d8df3"),
    ("crosscheck-j2", "tsv"): (
        0, "aafced61eea1cc873314516576b50ce1707355f35a82a1d33fe1e76087cc33ce"),
    ("crosscheck-j2", "json"): (
        0, "ff5c0b647b2f69233b02e6f8e5634a0acd2eead2f0e229553a4b2af840d12979"),
    ("crosscheck-j3", "csv"): (
        0, "1b1b486f4261bb8f2cf54e0e854d1432e0e7ab43f39475edf268bdc736060ddf"),
    ("crosscheck-j3", "tsv"): (
        0, "91a44b3c45be6e23298c96fe13448d9ae79231608c9ddcdebb8d45d9c1dfc848"),
    ("crosscheck-j3", "json"): (
        0, "b849a0c0237138b997c9ffc4e746c8615cd43832ab0d11efa727cdce37543dc8"),
    ("crosscheck-piece-cap", "csv"): (
        3, "406e2e1a4a6cb3918a78aab11bb438eca8d4192a6fc67e0c84b2da7042255ef1"),
    ("crosscheck-piece-cap", "tsv"): (
        3, "d2cade671089d783f8054f1d665185f4d2e2f6ac71d99938383bad4800e0d46d"),
    ("crosscheck-piece-cap", "json"): (
        3, "aabca58fd09087088dc5c75c087f6fe9198abf212d0ed172d871d15b4710c779"),
    ("conjecture", "csv"): (
        0, "098ae41220ded828864ae049b71811018f1e6890d19935bbc0e95e6bc4b231ad"),
    ("conjecture", "tsv"): (
        0, "d83e5a4b2e9d0e19d754058c520d83dfe5f97e17efd4772734a26842b62b25b9"),
    ("conjecture", "json"): (
        0, "f402953f6a1bbec2d1d837db4d31d83f6c9392a47bf6bd1c63d140ca70b1ad5c"),
    ("verify-lin-signed-zero", "csv"): (
        0, "b28cfd4065d4c1d3e3b9e641eb505557de7203a081a62d65f9918b86f51539d6"),
    ("verify-lin-signed-zero", "tsv"): (
        0, "6273cae256e57e3385f4e5011a76e2ccc93282535c4bb5d8e341acaa069885bf"),
    ("verify-lin-signed-zero", "json"): (
        0, "ee43560c5342ed15c31c312795eeb2487be432544646708b86c4c0074118c7fb"),
    ("verify-prod-signed-zero", "csv"): (
        1, "9112e8913c98b9227cdd4b8cfd9016922d8e52bb796dd8ad804c4f4bbaf9df45"),
    ("verify-prod-signed-zero", "tsv"): (
        1, "540baa87d5c3e8397c97a47be8f8d31fa22d022689fb309684297f257f264da6"),
    ("verify-prod-signed-zero", "json"): (
        1, "d97c2f89237aced47af33f2b3e7f21c47f795565e2b7117346a9aef86bf3587f"),
}


def run_case(capsys, monkeypatch, tmp_path, case: str, fmt: str):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code = main([*CASES[case], "--format", fmt])
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("case,fmt", sorted(GOLDEN))
def test_stdout_and_exit_code_are_pinned(capsys, monkeypatch, tmp_path,
                                         case, fmt):
    assert run_case(capsys, monkeypatch, tmp_path, case, fmt) \
        == GOLDEN[case, fmt]


def test_every_case_is_pinned_in_every_format():
    assert set(GOLDEN) == {(case, fmt) for case in CASES
                           for fmt in ("csv", "tsv", "json")}


@pytest.mark.parametrize("case,fmt", sorted(GOLDEN))
def test_caller_decimal_context_changes_nothing(capsys, monkeypatch, tmp_path,
                                                case, fmt):
    # a five-digit context with no traps would round any Decimal arithmetic
    # that ran in it silently
    with localcontext(Context(prec=5, traps=[])):
        assert run_case(capsys, monkeypatch, tmp_path, case, fmt) \
            == GOLDEN[case, fmt]
        assert getcontext().prec == 5
        assert not any(getcontext().flags.values())
