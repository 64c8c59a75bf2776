// AOT toolchain subcommands: `oha compile` serializes a program's
// compiled bytecode image into a .ohc container, `oha dump`
// disassembles an image (from a .ohc or compiled fresh from source)
// with its event-flag, inline-cache, and fusion annotations, and
// `oha stepdebug` is a PC→source-line REPL over the deterministic
// compiled engine.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"oha"
	"oha/internal/interp"
	"oha/internal/ohc"
	"oha/internal/sched"
	"oha/internal/vc"
)

// toolOpts carries the subset of oha's flags the toolchain commands
// honor.
type toolOpts struct {
	out      string
	inv      string
	noIC     bool
	noFusion bool
	noFast   bool
	inputs   []int64
	seed     uint64
}

// runTool dispatches the toolchain subcommands. Returns false if cmd
// is not one of them.
func runTool(cmd, file string, src []byte, o toolOpts) bool {
	switch cmd {
	case "compile":
		toolCompile(file, src, o)
	case "dump":
		toolDump(file, src, o)
	case "stepdebug":
		toolStepdebug(file, src, o)
	default:
		return false
	}
	return true
}

// compileImage builds the full-instrumentation bytecode image with
// speculative options derived from the optional invariant database:
// inline-cache seeds come from its likely callee sets (mirroring the
// images the analysis pipeline itself compiles).
func compileImage(prog *oha.Program, db *oha.InvariantDB, noIC, noFusion, noFast bool) *interp.Code {
	opts := interp.CompileOptions{DisableIC: noIC, DisableFusion: noFusion, DisableFastPath: noFast}
	if db != nil && !noIC {
		var seeds map[int][]int
		for site, set := range db.Callees {
			if set == nil || set.IsEmpty() {
				continue
			}
			if seeds == nil {
				seeds = make(map[int][]int, len(db.Callees))
			}
			seeds[site] = set.Slice()
		}
		opts.Callees = seeds
	}
	return interp.CompileWith(prog, interp.Masks{}, opts)
}

// isOHC detects a .ohc container by extension or magic.
func isOHC(file string, src []byte) bool {
	return strings.HasSuffix(file, ".ohc") || bytes.HasPrefix(src, []byte("OHCPKG"))
}

// toolCompile: `oha compile file.ml [-inv db.txt] [-ic off] [-fusion
// off] [-o prog.ohc]` — ahead-of-time compile to a serialized image.
func toolCompile(file string, src []byte, o toolOpts) {
	if isOHC(file, src) {
		check(fmt.Errorf("%s is already a compiled .ohc artifact", file))
	}
	prog, err := oha.Compile(string(src))
	check(err)
	var db *oha.InvariantDB
	if o.inv != "" {
		db = loadInv(o.inv)
	}
	code := compileImage(prog, db, o.noIC, o.noFusion, o.noFast)
	out := o.out
	if out == "" {
		out = strings.TrimSuffix(file, filepath.Ext(file)) + ".ohc"
	}
	data := ohc.Encode(string(src), code)
	check(os.WriteFile(out, data, 0o644))
	fmt.Fprintf(os.Stderr, "oha: wrote %s (%d bytes)\n", out, len(data))
}

// loadImage returns (program, source, image) from either a .ohc
// container (zero compile work beyond rebinding) or MiniLang source
// (compiled on the spot with the same flags `oha compile` honors).
func loadImage(file string, src []byte, o toolOpts) (*oha.Program, string, *interp.Code) {
	if isOHC(file, src) {
		f, err := ohc.Decode(src)
		check(err)
		return f.Prog, f.Source, f.Code
	}
	prog, err := oha.Compile(string(src))
	check(err)
	var db *oha.InvariantDB
	if o.inv != "" {
		db = loadInv(o.inv)
	}
	return prog, string(src), compileImage(prog, db, o.noIC, o.noFusion, o.noFast)
}

// toolDump: `oha dump prog.ohc|file.ml` — disassemble the compiled
// image with event-flag, inline-cache, and fusion annotations.
func toolDump(file string, src []byte, o toolOpts) {
	_, _, code := loadImage(file, src, o)
	check(code.Disasm(os.Stdout))
}

// toolStepdebug: `oha stepdebug prog.ohc|file.ml [-in 1,2] [-seed 7]`
// — interactive single-stepping over the deterministic scheduler.
func toolStepdebug(file string, src []byte, o toolOpts) {
	prog, source, code := loadImage(file, src, o)
	s, err := interp.NewSession(interp.Config{
		Prog:   prog,
		Inputs: o.inputs,
		Choose: sched.NewSeeded(o.seed),
		Engine: interp.EngineCompiled,
		Code:   code,
	})
	check(err)
	lines := strings.Split(source, "\n")
	if loc, ok := s.Loc(); ok {
		printLoc(loc)
	}
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("(oha) ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fields = []string{"step"}
		}
		cmd, args := fields[0], fields[1:]
		switch cmd {
		case "q", "quit", "exit":
			return
		case "h", "help":
			debugHelp()
		case "s", "step":
			n := 1
			if len(args) > 0 {
				n, err = strconv.Atoi(args[0])
				if err != nil || n < 1 {
					fmt.Println("usage: step [count]")
					continue
				}
			}
			var loc interp.DebugLoc
			ok := true
			for i := 0; i < n && ok; i++ {
				loc, ok = s.Step()
			}
			reportStop(s, loc, ok)
		case "c", "continue":
			loc, ok := s.Continue()
			reportStop(s, loc, ok)
		case "b", "break":
			if len(args) != 1 {
				fmt.Println("usage: break LINE")
				continue
			}
			line, err := strconv.Atoi(args[0])
			if err != nil {
				fmt.Println("usage: break LINE")
				continue
			}
			if !s.Break(line) {
				fmt.Printf("no instruction maps to line %d\n", line)
			}
		case "clear":
			if len(args) != 1 {
				fmt.Println("usage: clear LINE")
				continue
			}
			line, err := strconv.Atoi(args[0])
			if err != nil {
				fmt.Println("usage: clear LINE")
				continue
			}
			s.ClearBreak(line)
		case "breaks":
			fmt.Println("breakpoints:", s.Breakpoints())
		case "regs":
			tid := 0
			if len(args) > 0 {
				tid, err = strconv.Atoi(args[0])
				if err != nil {
					fmt.Println("usage: regs [tid]")
					continue
				}
			} else if loc, ok := s.Loc(); ok {
				tid = int(loc.TID)
			}
			vars, err := s.Regs(vc.TID(tid))
			if err != nil {
				fmt.Println(err)
				continue
			}
			for _, v := range vars {
				fmt.Printf("  %-12s = %s\n", v.Name, v.Value)
			}
		case "globals":
			for _, v := range s.Globals() {
				fmt.Printf("  %-12s = %s\n", v.Name, v.Value)
			}
		case "threads":
			for _, th := range s.Threads() {
				extra := ""
				if th.State != "done" && th.Loc.Line > 0 {
					extra = fmt.Sprintf("  line %d in %s", th.Loc.Line, th.Loc.Func)
				}
				fmt.Printf("  t%-3d %-20s depth %d%s\n", th.TID, th.State, th.Depth, extra)
			}
		case "l", "list":
			loc, ok := s.Loc()
			if !ok {
				fmt.Println("execution finished")
				continue
			}
			listSource(lines, loc.Line)
		case "where":
			if loc, ok := s.Loc(); ok {
				printLoc(loc)
			} else {
				fmt.Println("execution finished")
			}
		case "out", "output":
			fmt.Println("output:", s.Output())
		default:
			fmt.Printf("unknown command %q (try help)\n", cmd)
		}
	}
}

func debugHelp() {
	fmt.Print(`commands:
  step [n], s       retire one instruction (or n) and show the next stop
  continue, c       run to the next breakpoint or the end
  break LINE, b     stop before executing any instruction on a source line
  clear LINE        remove a line breakpoint
  breaks            list breakpoints
  where             show the scheduler's next pick (PC, line, flags)
  list, l           show source around the current line
  regs [tid]        named registers of a thread's current frame
  globals           global variables
  threads           all threads, states, and positions
  out               values printed so far
  quit, q           exit
`)
}

// printLoc renders one stop: thread, PC, source position, and the
// compiled image's per-PC annotations (baked event flags, inline
// cache, fusion head).
func printLoc(loc interp.DebugLoc) {
	ann := ""
	if loc.Events != "" {
		ann += " [" + loc.Events + "]"
	}
	if loc.IC {
		ann += " ic"
	}
	if loc.Fused {
		ann += " fused(" + loc.Micro + ")"
	}
	fmt.Printf("t%d pc=%d line=%d %s: %s%s\n", loc.TID, loc.PC, loc.Line, loc.Func, loc.Instr, ann)
}

// reportStop prints where execution stopped, or the terminal state.
func reportStop(s *interp.Session, loc interp.DebugLoc, ok bool) {
	if !ok {
		if err := s.Err(); err != nil {
			fmt.Println("execution ended:", err)
		} else {
			fmt.Println("execution finished; output:", s.Output())
		}
		return
	}
	printLoc(loc)
}

// listSource shows a window of source lines around line (1-based),
// marking the current one.
func listSource(lines []string, line int) {
	lo, hi := line-3, line+3
	if lo < 1 {
		lo = 1
	}
	if hi > len(lines) {
		hi = len(lines)
	}
	for l := lo; l <= hi; l++ {
		mark := "  "
		if l == line {
			mark = "=>"
		}
		fmt.Printf("%s %4d  %s\n", mark, l, strings.TrimRight(lines[l-1], " \t"))
	}
}
