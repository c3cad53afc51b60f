(** Deterministic generator of word-structured text for the Section 5.3
    microbenchmark.

    The paper processes half a million characters of Shakespeare whose
    words are "all upper-case or all lower-case", making the
    case-classification branches data-dependent and only ~84.5%
    predictable. This generator reproduces that structure: words of
    geometric length, each drawn all-upper or all-lower, separated by
    spaces with occasional punctuation and line breaks. *)

val generate : seed:int -> length:int -> Bytes.t
(** Exactly [length] bytes of printable ASCII text. *)
