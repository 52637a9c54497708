"""NVC: a small C-like language compiled to NV16.

Real NVP toolchains compile annotated C; this package provides the
equivalent for the NV16 substrate — a compact imperative language with
16-bit integers, 1-D arrays, functions, and the control flow needed to
write sensing kernels:

.. code-block:: c

    int src[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    int total;

    func sum(n) {
        int i; int acc;
        acc = 0;
        for (i = 0; i < n; i = i + 1) { acc = acc + src[i]; }
        return acc;
    }

    func main() {
        total = sum(8);
        out(total);            // stream to the MMIO output port
    }

The pipeline is ``source → lex → parse → (interpret | codegen → NV16
assembly → Program)``.  The tree-walking interpreter implements the
same 16-bit semantics as the generated code and serves as the
cross-check oracle in the test suite.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "CodegenError": ".codegen",
    "compile_program": ".codegen",
    "compile_source": ".codegen",
    "InterpError": ".interp",
    "interpret": ".interp",
    "LexError": ".lexer",
    "Token": ".lexer",
    "tokenize": ".lexer",
    "lint": ".lint",
    "LintWarning": ".lint",
    "parse": ".parser",
    "ParseError": ".parser",
})

# ``lint`` is also the name of its own submodule, and importing a
# submodule binds it on the package, so the function is bound eagerly
# (as the package did before it was lazy) rather than on first lookup.
from repro.lang.lint import lint  # noqa: E402
