include Bor_exec.Wqueue
