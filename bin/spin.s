; A loop of 200 million instructions: long enough that work
; done before an output is checked would take seconds.
main:   li   t0, 100000000
loop:   addi t0, t0, -1
        bne  t0, zero, loop
        halt
