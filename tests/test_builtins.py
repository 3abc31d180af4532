"""The paper's worked examples as the builtin chains: Props 3.4.3, 3.4.2 and
3.4.5 of arXiv 2402.15906.  Their reports are pinned by the contract cases
`homotopy_builtin`, `matrix_builtin` and `plane_builtin`; these are the
facts the reports do not print."""

from p1homotopy.exprio import builtin_chain
from p1homotopy.homotopy import validate_cert
from p1homotopy.poly import Poly
from p1homotopy.projlinear import Mat2, endpoint_matrix
from p1homotopy.resultants import resultant_oracle
from p1homotopy.rings import ZZ


def test_prop_3_4_3_resultants_agree_with_the_oracle():
    links = builtin_chain("homotopy", "prop_3_4_3").links
    assert len(links) == 4
    for link in links:
        cert = validate_cert(*link.family, ZZ)
        assert cert.res == resultant_oracle(cert.F, cert.G, cert.n, cert.n) == Poly.one(ZZ, "T")


def test_prop_3_4_2_families_at_t_1():
    h1, h2 = (link.family for link in builtin_chain("matrix", "prop_3_4_2").links)
    assert endpoint_matrix(h1, 1) == Mat2(1, -1, 1, 0)
    assert endpoint_matrix(h2, 1) == Mat2(0, 1, -1, 1)


def test_prop_3_4_5_orientations_and_ends():
    chain = builtin_chain("plane", "prop_3_4_5")
    assert "".join(link.orientation[0].upper() for link in chain.links) == "FRRFRR"
    assert tuple(map(str, chain.from_)) == ("T0^2", "T1")
    assert tuple(map(str, chain.to)) == ("T0", "T1^2")
