package vm_test

import (
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/vm"
)

// Assemble a program, execute it, and collect its value trace — the
// full substrate in a dozen lines.
func Example() {
	prog, err := asm.Assemble(`
	main:
		li $t0, 0
		li $t1, 0
	loop:
		addiu $t0, $t0, 1     # induction variable: stride pattern
		addu  $t1, $t1, $t0   # running sum
		li $t2, 5
		bne $t0, $t2, loop
		move $a0, $t1
		li $v0, 1             # print_int
		syscall
		li $v0, 10            # exit
		syscall
	`)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := vm.Trace(prog, 0)
	if err != nil {
		log.Fatal(err)
	}
	c := vm.New(prog, false)
	if err := c.Run(0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("program output: %s\n", c.Stdout)
	fmt.Printf("executed %d instructions, traced %d values\n", c.Executed, len(tr))
	// Output:
	// program output: 15
	// executed 27 instructions, traced 20 values
}
