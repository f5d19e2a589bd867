"""Kernel source rendering and the serialized kernel document format."""

from pathlib import Path

import numpy as np
import pytest

from treefem import expr as ex
from treefem.assemble import Assembler
from treefem.codegen import (
    DEFAULT_TEMPLATE, c_scalar, emit_kernels, parse_ir, serialize_ir,
)
from treefem.errors import CodegenError
from treefem.forms import BasisSel, compile_kernel
from treefem.mesh import build_mesh
from treefem.problem import parse_problem

GOLDEN = Path(__file__).parent / "golden"

MIXED_2D = """
[domain]
dimension = 2
min = 0, 0
max = 1, 1
base_refine_level = 4

[geometry]
shape = circle
center = 0.5, 0.5
radius = 0.4
refine_level = 5
boundary_types = sbm
bids = 1

[variables]
names = u

[coefficients]
alpha = 40

[boundary_regions]
1 = x < 0.5
2 = true

[boundary_conditions]
u @ 1 = dirichlet, x + 2*y
u @ 2 = neumann, -(x - 0.5) / 0.4

[weak_form]
dot(grad(u), grad(v)) - 1.0 * v
 + dirichletBoundary(
    -dot(grad(u), normal()) * v
    - dot(grad(v), normal())
      * (u + dot(grad(u), distanceToBoundary()) - dirichletValue())
    + alpha / elementDiameter()
      * (u + dot(grad(u), distanceToBoundary()) - dirichletValue())
      * (v + dot(grad(v), distanceToBoundary())))
 + neumannBoundary(
    dot(normal(), trueNormal())
      * (neumannValue() + dot(grad(u), trueNormal())) * v
    - dot(grad(u), normal()) * v)
"""

STEADY_PLAIN = """
[domain]
dimension = 2
min = 0, 0
max = 1, 1
base_refine_level = 3

[variables]
names = u

[boundary_regions]
1 = true

[boundary_conditions]
u @ 1 = dirichlet, 0

[weak_form]
dot(grad(u), grad(v))
"""


def heat_ir():
    spec = parse_problem((GOLDEN / "heat_bdf2_script.prob").read_text())
    return compile_kernel(spec)


def mixed_ir():
    return compile_kernel(parse_problem(MIXED_2D))


# -- rendering --------------------------------------------------------------

def test_emitted_kernels_match_golden_bytes(tmp_path):
    [path] = emit_kernels(heat_ir(), out_dir=tmp_path)
    assert path.read_bytes() == (GOLDEN / "heat_bdf2_kernels.cpp").read_bytes()


def test_transient_kernel_factors(tmp_path):
    [path] = emit_kernels(heat_ir(), out_dir=tmp_path)
    text = path.read_text()
    assert "N += (fe.N(row)*(wdetj * 1.5)*fe.N(col));" in text
    for axis in range(3):
        assert (f"N += (fe.dN(row, {axis})*(wdetj * dt)"
                f"*fe.dN(col, {axis}));") in text
    assert "N += (fe.N(row)*(wdetj * 2 * value_u_prev1));" in text
    assert "N += (fe.N(row)*(wdetj * (-0.5 * value_u_prev2)));" in text
    assert "const double value_u_prev1 = fe.previousValue(1);" in text
    assert "const double value_u_prev2 = fe.previousValue(2);" in text


def test_steady_kernel_has_no_history_fetches(tmp_path):
    ir = compile_kernel(parse_problem(STEADY_PLAIN))
    [path] = emit_kernels(ir, out_dir=tmp_path)
    text = path.read_text()
    assert "= fe.previousValue(" not in text
    assert "value_u_prev" not in text
    assert "Time scheme: steady" in text


def test_empty_bucket_renders_bare_accumulator(tmp_path):
    ir = compile_kernel(parse_problem(STEADY_PLAIN))
    [path] = emit_kernels(ir, out_dir=tmp_path)
    text = path.read_text()
    # no forcing term, so the volume vector kernel accumulates nothing
    start = text.index("void Integrands_be(")
    stop = text.index("be(row) += N;", start)
    body = text[start:stop]
    assert "double N = 0.0;" in body
    assert "N +=" not in body.replace("N = 0.0", "")


def test_surface_kernels_reference_shift_data(tmp_path):
    [path] = emit_kernels(mixed_ir(), out_dir=tmp_path)
    text = path.read_text()
    assert "alpha / h_elem" in text
    assert "d_shift[0]" in text and "d_shift[1]" in text
    assert "n_tilde[0]" in text
    assert "n_true[0]" in text
    assert "g_dirichlet" in text and "g_neumann" in text
    # 2-D problem: no z-axis derivative anywhere
    assert "dN(row, 2)" not in text and "dN(col, 2)" not in text
    assert "const int n_dimensions = 2;" in text


def test_emission_is_deterministic(tmp_path):
    [first] = emit_kernels(mixed_ir(), out_dir=tmp_path / "a")
    [second] = emit_kernels(mixed_ir(), out_dir=tmp_path / "b")
    assert first.read_bytes() == second.read_bytes()


def test_custom_template(tmp_path):
    template = tmp_path / "tiny.txt.tmpl"
    template.write_text(
        "dim=${dimension}\nprelude:\n${prelude}\n"
        "coeffs:\n${coefficient_table}\n"
        "Avol:\n${volume_matrix_terms}\nbvol:\n${volume_vector_terms}\n"
        "Adir:\n${dirichlet_matrix_terms}\nbdir:\n${dirichlet_vector_terms}\n"
        "Aneu:\n${neumann_matrix_terms}\nbneu:\n${neumann_vector_terms}\n")
    [path] = emit_kernels(heat_ir(), template=template, out_dir=tmp_path)
    assert path.name == "tiny.txt"
    text = path.read_text()
    assert "dim=3" in text
    assert "wdetj * 1.5" in text
    assert "alpha" in text and "time step size" in text


def test_missing_template_file_is_reported(tmp_path):
    with pytest.raises(CodegenError, match="cannot read template"):
        emit_kernels(heat_ir(), template=tmp_path / "absent.tmpl",
                     out_dir=tmp_path)


def test_template_without_required_placeholder(tmp_path):
    template = tmp_path / "partial.tmpl"
    template.write_text("only ${dimension} here\n")
    with pytest.raises(CodegenError, match="volume_matrix_terms"):
        emit_kernels(heat_ir(), template=template, out_dir=tmp_path)


def test_template_with_unknown_placeholder(tmp_path):
    text = DEFAULT_TEMPLATE.read_text() + "\n${bogus_slot}\n"
    template = tmp_path / "extra.tmpl"
    template.write_text(text)
    with pytest.raises(CodegenError, match="bogus_slot"):
        emit_kernels(heat_ir(), template=template, out_dir=tmp_path)


def test_output_directory_is_created(tmp_path):
    [path] = emit_kernels(heat_ir(), out_dir=tmp_path / "deep" / "nest")
    assert path.exists()


# -- the C expression printer ----------------------------------------------

def test_scalar_printer_names():
    assert c_scalar(ex.Name("special:nt:1")) == "n_tilde[1]"
    assert c_scalar(ex.Name("special:ntrue:2")) == "n_true[2]"
    assert c_scalar(ex.Name("special:d:0")) == "d_shift[0]"
    assert c_scalar(ex.Name("special:h")) == "h_elem"
    assert c_scalar(ex.Name("special:gd")) == "g_dirichlet"
    assert c_scalar(ex.Name("special:gn")) == "g_neumann"
    assert c_scalar(ex.Name("prev:u:2")) == "value_u_prev2"
    assert c_scalar(ex.Name("vel:0")) == "vel[0]"
    assert c_scalar(ex.Name("alpha")) == "alpha"
    assert c_scalar(ex.Name("x")) == "p.x()"
    assert c_scalar(ex.Call("abs", (ex.Name("y"),))) == "fabs(p.y())"


def test_scalar_printer_precedence():
    a, b, c = ex.Name("a"), ex.Name("b"), ex.Name("c")
    assert c_scalar(ex.Bin("*", ex.Bin("+", a, b), c)) == "(a + b) * c"
    assert c_scalar(ex.Bin("-", a, ex.Bin("-", b, c))) == "a - (b - c)"
    assert c_scalar(ex.Neg(ex.Bin("*", a, b))) == "-(a * b)"
    assert c_scalar(ex.Bin("/", a, ex.Bin("*", b, c))) == "a / (b * c)"
    assert c_scalar(ex.Num(-0.5)) == "-0.5"
    assert c_scalar(ex.Num(2.0)) == "2"


def test_scalar_printer_rejects_unmapped_names():
    with pytest.raises(CodegenError, match="special:bogus:0"):
        c_scalar(ex.Name("special:bogus:0"))
    with pytest.raises(CodegenError, match="a:b:c:d"):
        c_scalar(ex.Name("a:b:c:d"))


# -- serialized documents ----------------------------------------------------

def test_serialize_round_trips_object_and_bytes():
    for ir in (heat_ir(), mixed_ir(),
               compile_kernel(parse_problem(STEADY_PLAIN))):
        doc = serialize_ir(ir)
        assert parse_ir(doc) == ir
        assert serialize_ir(parse_ir(doc)) == doc


def test_serialized_document_matches_golden():
    assert serialize_ir(heat_ir()) == (GOLDEN / "heat_bdf2_ir.txt").read_text()


def test_document_shape():
    doc = serialize_ir(mixed_ir())
    lines = doc.splitlines()
    assert lines[0] == "kernelir 1"
    assert "dimension 2" in lines
    assert "steady true" in lines
    assert "scheme none" in lines
    assert "unknown u" in lines
    # all six groups appear, in canonical order
    headers = [ln for ln in lines if ln.startswith("group ")]
    assert headers == ["group volume_bilinear", "group volume_linear",
                       "group dirichlet_bilinear", "group dirichlet_linear",
                       "group neumann_bilinear", "group neumann_linear"]
    for family in ("special:nt:", "special:ntrue:", "special:d:",
                   "special:h", "special:gd", "special:gn"):
        assert family in doc


def test_steady_document_has_no_prelude():
    doc = serialize_ir(compile_kernel(parse_problem(STEADY_PLAIN)))
    assert "prelude" not in doc


def test_parsed_document_assembles_identically():
    spec = parse_problem(MIXED_2D)
    mesh = build_mesh(spec)
    ir = compile_kernel(spec)
    assembler = Assembler(mesh, spec)
    A0, b0 = assembler.assemble(ir)
    A1, b1 = assembler.assemble(parse_ir(serialize_ir(ir)))
    assert np.array_equal(b0, b1)
    assert np.array_equal(A0.toarray(), A1.toarray())


@pytest.mark.parametrize("mangle, complaint", [
    ("header", "kernelir 1"),
    ("group volume_bilinear@group sideways", "unknown contribution group"),
    ("term N N 1.5@stray N N 1.5", "unrecognized line"),
    ("scheme bdf2@scheme rk4", "unknown time scheme"),
    ("steady false@steady path", "bad steady flag"),
    ("dimension 3@dimension tall", "bad dimension"),
    ("prelude u 1@prelude u one", "bad prelude"),
    ("prelude u 1@prelude u ²", "bad prelude"),
    ("term N N 1.5@term N dN:q 1.5", "bad trial selector"),
    ("term N N 1.5@term - N 1.5", "test selector"),
    ("term N N 1.5@term N N", "bad term line"),
    ("term N N 1.5@term N N (* dt", "bad term scalar"),
    ("term N N 1.5@term N - 1.5", "does not fit group"),
])
def test_parse_rejects_malformed_documents(mangle, complaint):
    doc = serialize_ir(heat_ir())
    if mangle == "header":
        doc = doc.replace("kernelir 1", "kernelir 9", 1)
    else:
        old, new = mangle.split("@")
        assert old in doc
        doc = doc.replace(old, new, 1)
    with pytest.raises(CodegenError, match=complaint):
        parse_ir(doc)


def test_parse_rejects_missing_field():
    doc = serialize_ir(heat_ir()).replace("unknown u\n", "")
    with pytest.raises(CodegenError, match="unknown"):
        parse_ir(doc)


def test_parse_rejects_term_before_group():
    with pytest.raises(CodegenError, match="before a group header"):
        parse_ir("kernelir 1\ndimension 2\nsteady true\nscheme none\n"
                 "unknown u\nterm N N 1.5\n")


def test_parse_tolerates_blank_lines():
    doc = serialize_ir(heat_ir())
    padded = doc.replace("group volume_linear", "\ngroup volume_linear\n")
    assert parse_ir(padded) == parse_ir(doc)


def test_selector_text_round_trip():
    ir = heat_ir()
    seen = set()
    for _, _, contributions in ir.groups():
        for c in contributions:
            seen.add(c.test)
            if c.trial is not None:
                seen.add(c.trial)
    assert BasisSel("N") in seen
    assert any(s.kind == "dN" for s in seen)
