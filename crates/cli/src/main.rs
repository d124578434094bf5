//! The `ifet` command-line tool. See [`ifet_cli::USAGE`].

use std::io::Write;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match ifet_cli::parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", ifet_cli::USAGE);
            std::process::exit(2);
        }
    };
    match ifet_cli::run(&args) {
        // A reader that stops early (`ifet info | head -1`) closes the
        // pipe; that ends the output, it is not an error.
        Ok(out) => match writeln!(std::io::stdout(), "{out}") {
            Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
                eprintln!("error: cannot write output: {e}");
                std::process::exit(1);
            }
            _ => {}
        },
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
