"""MinC: a small C-like language compiled to the multiscalar ISA.

This is the reproduction's stand-in for the paper's modified GCC 2.5.8.
MinC supports ``int`` and ``float`` scalars (floats are IEEE doubles),
global and stack arrays, pointers-as-integers with byte/word intrinsics,
functions, and the usual statement forms. A loop marked ``parallel``
nominates its body as a multiscalar task; :func:`compile_and_annotate`
runs the full pipeline source → assembly → annotated multiscalar binary.

Intrinsics: ``print_int(e)``, ``print_char(e)``, ``print_str("...")``,
``exit()``, ``__lb(addr)``/``__lbu(addr)`` (load byte), ``__sb(addr,
v)`` (store byte), ``__lw(addr)``/``__sw(addr, v)`` (load/store word
through a computed address), ``float(e)``/``int(e)`` conversions, and
``alloc(bytes)`` (a bump allocator over the heap segment).
"""

from repro._lazy import lazy_exports

__all__ = [
    "CodegenError",
    "CompiledUnit",
    "LexError",
    "ParseError",
    "compile_and_annotate",
    "compile_minic",
    "compile_scalar",
    "parse",
    "tokenize",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "lexer": ("LexError", "tokenize"),
    "parser": ("ParseError", "parse"),
    "codegen": ("CodegenError", "CompiledUnit", "compile_minic"),
    "driver": ("compile_and_annotate", "compile_scalar"),
})
