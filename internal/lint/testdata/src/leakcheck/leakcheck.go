// Fixture for the leakcheck analyzer: goroutines whose body can never
// reach termination are flagged; goroutines with a done channel, a
// closable work channel, or any conditional exit are not.
package leakcheck

func work() {}

func badSpawn() {
	go func() {
		for {
			work()
		}
	}()
}

// spin loops forever with no exit.
func spin() {
	for {
		work()
	}
}

func badNamed() {
	go spin()
}

// badSelect is the near-miss of okSelect with the shutdown case removed.
func badSelect(tick chan int) {
	go func() {
		for {
			select {
			case <-tick:
				work()
			}
		}
	}()
}

// okSelect threads a done channel through the loop.
func okSelect(tick chan int, done chan struct{}) {
	go func() {
		for {
			select {
			case <-tick:
				work()
			case <-done:
				return
			}
		}
	}()
}

// okRange terminates when the work channel is closed.
func okRange(ch chan int) {
	go func() {
		for v := range ch {
			_ = v
		}
	}()
}

// okConditional can leave the loop.
func okConditional(n int) {
	go func() {
		for {
			if n > 0 {
				break
			}
			n--
		}
	}()
}

// okOneShot runs to completion on its own.
func okOneShot() {
	go work()
}

// okUnresolvable: builtins and other packages cannot be analyzed and are
// skipped.
func okUnresolvable() {
	go println("x")
}
