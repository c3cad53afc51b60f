        .data
buf:    .space 8000000
        .text
main:   halt
