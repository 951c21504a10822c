// Command devudf is the CLI incarnation of the devUDF plugin: the same
// workflow verbs the paper's PyCharm figures show, driven from a terminal.
//
//	devudf menu                          the UDF Development menu (Fig. 1)
//	devudf settings [-set k=v ...]       show / edit settings (Fig. 2)
//	devudf list                          UDFs on the server (Fig. 3a)
//	devudf import  [-all | names...]     import UDFs into the project
//	devudf export  [-all | names...]     export project UDFs back (Fig. 3b)
//	devudf extract -udf NAME             ship the UDF's input data locally
//	devudf run     -udf NAME             run the imported UDF locally
//	devudf query   [-param V ...] SQL    run SQL (placeholders bound to -param)
//	devudf debug   -udf NAME             interactive local debugger
//
// Settings persist in ./devudf.json; the project lives in ./<project_dir>.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/devudf"
	"repro/internal/core"
	"repro/internal/debug"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/udfrt"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	fs := core.OSFS{}
	// The first ^C cancels in-flight wire operations; a second one falls
	// back to the default handler and exits the process.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		cancel()
		signal.Stop(sig)
		signal.Reset(os.Interrupt)
	}()
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "menu":
		printMenu(os.Stdout)
	case "settings":
		err = cmdSettings(fs, args)
	case "list":
		err = cmdList(ctx, fs)
	case "import":
		err = cmdImport(ctx, fs, args)
	case "export":
		err = cmdExport(ctx, fs, args)
	case "extract":
		err = cmdExtract(ctx, fs, args)
	case "run":
		err = cmdRun(ctx, fs, args)
	case "query":
		err = cmdQuery(ctx, fs, args)
	case "debug":
		err = cmdDebug(ctx, fs, args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "devudf: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "devudf:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: devudf <command> [arguments]

commands:
  menu       show the UDF Development menu
  settings   show or edit plugin settings
  list       list UDFs stored on the database server
  import     import UDFs from the server into the project
  export     export project UDFs back to the server
  extract    extract a UDF's input data for local runs
  run        run an imported UDF locally
  query      run SQL on the server ([-param V ...] binds placeholders)
  debug      debug an imported UDF interactively
`)
}

// printMenu reproduces the paper's Fig. 1 menu integration as a tree.
func printMenu(w io.Writer) {
	fmt.Fprint(w, `Main Menu
└── UDF Development
    ├── Settings...            (connection, debug query, transfer options)
    ├── Import UDFs...         (fetch UDFs from the database server)
    └── Export UDFs...         (commit edited UDFs back to the server)
`)
}

func connect(ctx context.Context, fs core.FS) (*devudf.Client, devudf.Settings, error) {
	settings, err := devudf.LoadSettings(fs)
	if err != nil {
		return nil, settings, err
	}
	c, err := devudf.Open(ctx, settings, devudf.WithFS(fs))
	return c, settings, err
}

func cmdSettings(fs core.FS, args []string) error {
	flags := flag.NewFlagSet("settings", flag.ExitOnError)
	var sets multiFlag
	flags.Var(&sets, "set", "key=value (host, port, database, user, password, query, project, compress, encrypt, sample, seed); repeatable")
	if err := flags.Parse(args); err != nil {
		return err
	}
	s, err := devudf.LoadSettings(fs)
	if err != nil {
		return err
	}
	for _, kv := range sets {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("bad -set %q (want key=value)", kv)
		}
		if err := applySetting(&s, k, v); err != nil {
			return err
		}
	}
	if len(sets) > 0 {
		if err := devudf.SaveSettings(fs, s); err != nil {
			return err
		}
	}
	fmt.Printf(`devUDF settings (devudf.json)
  host:       %s
  port:       %d
  database:   %s
  user:       %s
  password:   %s
  query:      %s
  project:    %s
  compress:   %v
  encrypt:    %v
  sample:     %d
  seed:       %d
`, s.Connection.Host, s.Connection.Port, s.Connection.Database, s.Connection.User,
		strings.Repeat("*", len(s.Connection.Password)), s.DebugQuery, s.ProjectDir,
		s.Transfer.Compress, s.Transfer.Encrypt, s.Transfer.SampleSize, s.Transfer.Seed)
	return nil
}

// applySetting parses one -set value into s; whether the result is usable
// is Settings.Validate's call, made when the settings are saved.
func applySetting(s *devudf.Settings, key, val string) error {
	switch key {
	case "host":
		s.Connection.Host = val
	case "port":
		p, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("bad port %q", val)
		}
		s.Connection.Port = p
	case "database":
		s.Connection.Database = val
	case "user":
		s.Connection.User = val
	case "password":
		s.Connection.Password = val
	case "query":
		s.DebugQuery = val
	case "project":
		s.ProjectDir = val
	case "compress":
		return setBool(&s.Transfer.Compress, key, val)
	case "encrypt":
		return setBool(&s.Transfer.Encrypt, key, val)
	case "sample":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("bad sample size %q", val)
		}
		s.Transfer.SampleSize = n
	case "seed":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q", val)
		}
		s.Transfer.Seed = n
	default:
		return fmt.Errorf("unknown setting %q", key)
	}
	return nil
}

// setBool reads a boolean setting in strconv.ParseBool's spellings and
// refuses anything else, so "yes" or a typo never reads as false.
func setBool(dst *bool, key, val string) error {
	b, err := strconv.ParseBool(val)
	if err != nil {
		return fmt.Errorf("bad %s %q (want true or false)", key, val)
	}
	*dst = b
	return nil
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func cmdList(ctx context.Context, fs core.FS) error {
	c, _, err := connect(ctx, fs)
	if err != nil {
		return err
	}
	defer c.Close()
	infos, err := c.ListServerUDFs(ctx)
	if err != nil {
		return err
	}
	if len(infos) == 0 {
		fmt.Println("no UDFs stored on the server")
		return nil
	}
	names, err := c.Project.List()
	if err != nil {
		return err
	}
	imported := map[string]bool{}
	for _, n := range names {
		imported[strings.ToLower(n)] = true
	}
	fmt.Println("UDFs on the server (Import UDFs window):")
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  \tNAME\tLANGUAGE\tKIND\tDEBUGGABLE")
	for _, info := range infos {
		kind := "scalar"
		if info.IsTable {
			kind = "table"
		}
		params := make([]string, len(info.Params))
		for i, p := range info.Params {
			params[i] = p.Name + " " + p.Type
		}
		mark := "[ ]"
		if imported[strings.ToLower(info.Name)] {
			mark = "[x]" // already imported
		}
		debuggable := "yes"
		if !devudf.LanguageDebuggable(info.Language) {
			debuggable = "no"
		}
		fmt.Fprintf(tw, "  %s\t%s(%s)\t%s\t%s\t%s\n",
			mark, info.Name, strings.Join(params, ", "), languageName(info.Language), kind, debuggable)
	}
	return tw.Flush()
}

// languageName normalizes a catalog language for display (one shared rule:
// udfrt.Canonical).
func languageName(lang string) string { return udfrt.Canonical(lang) }

func cmdImport(ctx context.Context, fs core.FS, args []string) error {
	flags := flag.NewFlagSet("import", flag.ExitOnError)
	all := flags.Bool("all", false, "import all functions stored in the server")
	language := flags.String("language", "", "only import UDFs of this language (PYTHON, GO, ...)")
	if err := flags.Parse(args); err != nil {
		return err
	}
	c, _, err := connect(ctx, fs)
	if err != nil {
		return err
	}
	defer c.Close()
	names := flags.Args()
	var infos []devudf.UDFInfo
	if *all || *language != "" {
		// one catalog snapshot serves both the -all expansion and the
		// -language filter
		if infos, err = c.ListServerUDFs(ctx); err != nil {
			return err
		}
	}
	if *all {
		names = names[:0]
		for _, info := range infos {
			names = append(names, info.Name)
		}
	} else if len(names) == 0 {
		return fmt.Errorf("specify UDF names or -all")
	}
	if *language != "" {
		names = filterByLanguage(infos, names, *language)
		if len(names) == 0 {
			fmt.Printf("no matching UDFs with language %s\n", languageName(*language))
			return nil
		}
	}
	imported, err := c.ImportUDFs(ctx, names...)
	for _, name := range imported {
		fmt.Printf("imported %s -> %s\n", name, c.Project.ScriptPath(name))
	}
	return err
}

// filterByLanguage keeps the named UDFs whose LANGUAGE matches
// (case-insensitive; names missing from the catalog are kept so the import
// reports them).
func filterByLanguage(infos []devudf.UDFInfo, names []string, language string) []string {
	langOf := map[string]string{}
	for _, info := range infos {
		langOf[strings.ToLower(info.Name)] = languageName(info.Language)
	}
	want := languageName(language)
	var out []string
	for _, name := range names {
		if lang, ok := langOf[strings.ToLower(name)]; !ok || lang == want {
			out = append(out, name)
		}
	}
	return out
}

func cmdExport(ctx context.Context, fs core.FS, args []string) error {
	flags := flag.NewFlagSet("export", flag.ExitOnError)
	all := flags.Bool("all", false, "export every project UDF")
	language := flags.String("language", "", "only export project UDFs of this language (PYTHON, GO, ...)")
	if err := flags.Parse(args); err != nil {
		return err
	}
	c, _, err := connect(ctx, fs)
	if err != nil {
		return err
	}
	defer c.Close()
	names := flags.Args()
	if *all {
		names, err = c.Project.List()
		if err != nil {
			return err
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("specify UDF names or -all")
	}
	if *language != "" {
		want := languageName(*language)
		kept := names[:0]
		for _, name := range names {
			info, _, err := c.Project.LoadUDF(name)
			if err != nil {
				return err
			}
			if languageName(info.Language) == want {
				kept = append(kept, name)
			}
		}
		names = kept
		if len(names) == 0 {
			fmt.Printf("no project UDFs with language %s\n", want)
			return nil
		}
	}
	if err := c.ExportUDFs(ctx, names...); err != nil {
		return err
	}
	fmt.Printf("exported %s back to the server\n", strings.Join(names, ", "))
	return nil
}

func cmdExtract(ctx context.Context, fs core.FS, args []string) error {
	flags := flag.NewFlagSet("extract", flag.ExitOnError)
	udf := flags.String("udf", "", "UDF to extract input data for")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if *udf == "" {
		return fmt.Errorf("-udf is required")
	}
	c, _, err := connect(ctx, fs)
	if err != nil {
		return err
	}
	defer c.Close()
	info, err := c.ExtractInputs(ctx, *udf)
	if err != nil {
		return err
	}
	fmt.Printf("extracted inputs for %s: %d of %d rows, %d payload bytes (compressed=%v encrypted=%v) -> %s\n",
		info.UDF, info.SampleRows, info.TotalRows, info.PayloadBytes,
		info.Compressed, info.Encrypted, c.Project.InputPath(info.UDF))
	return nil
}

func cmdRun(ctx context.Context, fs core.FS, args []string) error {
	flags := flag.NewFlagSet("run", flag.ExitOnError)
	udf := flags.String("udf", "", "UDF to run locally")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if *udf == "" {
		return fmt.Errorf("-udf is required")
	}
	c, _, err := connect(ctx, fs)
	if err != nil {
		return err
	}
	defer c.Close()
	res, err := c.RunLocal(ctx, *udf)
	if res != nil && res.Stdout != "" {
		fmt.Print(res.Stdout)
	}
	if err != nil {
		return err
	}
	fmt.Printf("result: %s (%d interpreter steps)\n", res.Value.Repr(), res.Steps)
	return nil
}

// cmdQuery runs one SQL statement on the server. -param values are SQL
// literals bound (typed, in order) to the statement's `?`/`$n`
// placeholders through the prepared-statement path; without params the
// text runs directly.
func cmdQuery(ctx context.Context, fs core.FS, args []string) error {
	flags := flag.NewFlagSet("query", flag.ExitOnError)
	var params multiFlag
	flags.Var(&params, "param", "bind argument as a SQL literal (42, 4.2, 'text', true, null); repeatable")
	timeout := flags.Duration("timeout", 0, "deadline for the statement; on expiry the connection is severed and the server aborts the query (0: none)")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if flags.NArg() != 1 {
		return fmt.Errorf("usage: devudf query [-timeout D] [-param V ...] 'SQL'")
	}
	binds, err := sqlparse.ParseLiterals(params)
	if err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	c, _, err := connect(ctx, fs)
	if err != nil {
		return err
	}
	defer c.Close()
	res, err := c.Query(ctx, flags.Arg(0), binds...)
	if err != nil {
		// Server-side cancellation is a clean, typed outcome: the query was
		// stopped and the session stayed consistent. Anything else after the
		// deadline fired is the connection being severed mid-flight.
		if core.IsCancelled(err) {
			return fmt.Errorf("query cancelled by server: %w", err)
		}
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return fmt.Errorf("query abandoned after %v (connection severed): %w", *timeout, err)
		}
		return err
	}
	if res.Table != nil {
		printResult(os.Stdout, res.Table)
	}
	fmt.Println(res.Tag)
	return nil
}

// printResult renders a result set as an aligned table.
func printResult(w io.Writer, t *storage.Table) {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	header := make([]string, len(t.Cols))
	for i, col := range t.Cols {
		header[i] = col.Name
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for r := 0; r < t.NumRows(); r++ {
		row := make([]string, len(t.Cols))
		for i, col := range t.Cols {
			row[i] = col.FormatValue(r)
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
}

func cmdDebug(ctx context.Context, fs core.FS, args []string) error {
	flags := flag.NewFlagSet("debug", flag.ExitOnError)
	udf := flags.String("udf", "", "UDF to debug")
	remote := flags.Bool("remote", false,
		"attach to the UDF executing inside the server (wire v2 debug sub-protocol) instead of running it locally")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if *udf == "" {
		return fmt.Errorf("-udf is required")
	}
	c, _, err := connect(ctx, fs)
	if err != nil {
		return err
	}
	defer c.Close()
	if *remote {
		sess, err := c.NewRemoteDebugSession(ctx, *udf, true)
		if err != nil {
			return err
		}
		defer sess.Close()
		return debugREPL(sess, os.Stdin, os.Stdout)
	}
	sess, err := c.NewDebugSession(ctx, *udf, true)
	if err != nil {
		return err
	}
	err = debugREPL(newLocalDriver(sess), os.Stdin, os.Stdout)
	// The REPL has ended the program; show what it printed.
	if out := sess.Stdout(); out != "" {
		fmt.Printf("\nprogram output:\n%s", out)
	}
	return err
}

// debugDriver is the REPL's view of a debug session: the local in-process
// debugger and the remote in-server one drive the same interactive loop.
// devudf.RemoteDebugSession implements it directly; localDriver adapts
// devudf.DebugSession.
type debugDriver interface {
	SetBreakpoint(line int, condition string) error
	Breakpoints() []debug.Breakpoint
	Source() []string
	Start() (devudf.DebugEvent, error)
	Continue() (devudf.DebugEvent, error)
	StepOver() (devudf.DebugEvent, error)
	StepInto() (devudf.DebugEvent, error)
	StepOut() (devudf.DebugEvent, error)
	Kill() (devudf.DebugEvent, error)
	Eval(expr string) (string, error)
	Locals() (map[string]string, error)
	Stack() ([]debug.FrameInfo, error)
}

// localDriver adapts the in-process DebugSession to the driver surface
// (values rendered to their repr, errors folded into events).
type localDriver struct{ sess *devudf.DebugSession }

func newLocalDriver(sess *devudf.DebugSession) debugDriver { return localDriver{sess} }

func (d localDriver) SetBreakpoint(line int, condition string) error {
	d.sess.SetBreakpoint(line, condition)
	return nil
}
func (d localDriver) Breakpoints() []debug.Breakpoint      { return d.sess.Breakpoints() }
func (d localDriver) Source() []string                     { return d.sess.Source() }
func (d localDriver) Start() (devudf.DebugEvent, error)    { return d.sess.Start(), nil }
func (d localDriver) Continue() (devudf.DebugEvent, error) { return d.sess.Continue(), nil }
func (d localDriver) StepOver() (devudf.DebugEvent, error) { return d.sess.StepOver(), nil }
func (d localDriver) StepInto() (devudf.DebugEvent, error) { return d.sess.StepInto(), nil }
func (d localDriver) StepOut() (devudf.DebugEvent, error)  { return d.sess.StepOut(), nil }
func (d localDriver) Kill() (devudf.DebugEvent, error)     { return d.sess.Kill(), nil }
func (d localDriver) Eval(expr string) (string, error) {
	v, err := d.sess.Eval(expr)
	if err != nil {
		return "", err
	}
	return v.Repr(), nil
}
func (d localDriver) Locals() (map[string]string, error) {
	vars, err := d.sess.Locals()
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(vars))
	for k, v := range vars {
		out[k] = v.Repr()
	}
	return out, nil
}
func (d localDriver) Stack() ([]debug.FrameInfo, error) { return d.sess.Stack() }

// debugREPL drives a debug session with gdb-like commands.
func debugREPL(sess debugDriver, input io.Reader, out io.Writer) error {
	fmt.Fprintln(out, `devUDF debugger. Commands:
  b LINE [COND]   set breakpoint      c  continue        n  step over
  s  step into    o  step out         p EXPR  evaluate   locals
  stack           list                q  quit`)
	started := false
	report := func(ev devudf.DebugEvent, err error) bool {
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return false
		}
		if ev.Terminal {
			if ev.Err != nil {
				fmt.Fprintln(out, "program failed:", ev.Err)
			} else {
				fmt.Fprintf(out, "program finished (%s)\n", ev.Reason)
			}
			return true
		}
		src := sess.Source()
		lineText := ""
		if ev.Line-1 >= 0 && ev.Line-1 < len(src) {
			lineText = strings.TrimRight(src[ev.Line-1], " \t")
		}
		fmt.Fprintf(out, "stopped (%s) at %s:%d\n  %4d | %s\n", ev.Reason, ev.FuncName, ev.Line, ev.Line, lineText)
		return false
	}
	sc := bufio.NewScanner(input)
	fmt.Fprint(out, "(devudf) ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Fprint(out, "(devudf) ")
			continue
		}
		switch fields[0] {
		case "q", "quit":
			if started {
				_, _ = sess.Kill()
			}
			return nil
		case "b", "break":
			if len(fields) < 2 {
				fmt.Fprintln(out, "usage: b LINE [CONDITION]")
				break
			}
			line, err := strconv.Atoi(fields[1])
			if err != nil {
				fmt.Fprintln(out, "bad line number")
				break
			}
			if err := sess.SetBreakpoint(line, strings.Join(fields[2:], " ")); err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprintf(out, "breakpoint set at line %d\n", line)
		case "c", "continue", "r", "run":
			if done := stepCmd(sess, &started, sess.Continue, report); done {
				return nil
			}
		case "n", "next":
			if done := stepCmd(sess, &started, sess.StepOver, report); done {
				return nil
			}
		case "s", "step":
			if done := stepCmd(sess, &started, sess.StepInto, report); done {
				return nil
			}
		case "o", "out":
			if done := stepCmd(sess, &started, sess.StepOut, report); done {
				return nil
			}
		case "p", "print":
			if !started {
				fmt.Fprintln(out, "not running (use c to start)")
				break
			}
			v, err := sess.Eval(strings.Join(fields[1:], " "))
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprintln(out, v)
		case "locals":
			if !started {
				fmt.Fprintln(out, "not running (use c to start)")
				break
			}
			vars, err := sess.Locals()
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			names := make([]string, 0, len(vars))
			for n := range vars {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(out, "  %s = %s\n", n, vars[n])
			}
		case "stack":
			if !started {
				fmt.Fprintln(out, "not running (use c to start)")
				break
			}
			frames, err := sess.Stack()
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			for i, f := range frames {
				fmt.Fprintf(out, "  #%d %s at line %d\n", i, f.FuncName, f.Line)
			}
		case "list", "l":
			for i, ln := range sess.Source() {
				marks := " "
				for _, bp := range sess.Breakpoints() {
					if bp.Line == i+1 {
						marks = "*"
					}
				}
				fmt.Fprintf(out, "%s%4d | %s\n", marks, i+1, ln)
			}
		default:
			fmt.Fprintf(out, "unknown command %q\n", fields[0])
		}
		fmt.Fprint(out, "(devudf) ")
	}
	if started {
		_, _ = sess.Kill()
	}
	return sc.Err()
}

func stepCmd(sess debugDriver, started *bool,
	step func() (devudf.DebugEvent, error), report func(devudf.DebugEvent, error) bool) bool {
	if !*started {
		*started = true
		return report(sess.Start())
	}
	return report(step())
}
