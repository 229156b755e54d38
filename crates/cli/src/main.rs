//! The `hadas` binary: parse arguments, execute, exit non-zero on error.

use hadas_cli::{execute, usage, Command};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match Command::parse(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `hadas help` for usage");
            std::process::exit(2);
        }
    };
    if cmd == Command::Help {
        // `hadas <command> --help` gets that command's usage only.
        print!("{}", usage(args.first().map(String::as_str)));
        return;
    }
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = execute(cmd, &mut stdout) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
