//! The argv reader of both binaries: `ucsim` and `ucsim-serve` read
//! their flags a word at a time through [`Flags`] and report misuse
//! through their [`Usage`].

use std::str::FromStr;

/// A binary's usage text and how it reports misuse.
pub struct Usage {
    /// What `--help` prints, and every usage error repeats.
    pub text: &'static str,
    /// What `--help` prints after the text.
    pub help_end: &'static str,
    /// The exit status of a usage error.
    pub status: i32,
}

impl Usage {
    /// Reports a usage error (the message, a blank line, the text) and
    /// exits with [`Usage::status`].
    pub fn bail(&self, message: &str) -> ! {
        eprintln!("error: {message}\n\n{}", self.text);
        std::process::exit(self.status)
    }

    /// Prints the text and exits 0 when `word` is `--help` or `-h`.
    pub fn exit_on_help(&self, word: &str) {
        if word == "--help" || word == "-h" {
            print!("{}{}", self.text, self.help_end);
            std::process::exit(0);
        }
    }
}

/// One mode's argv, read a word at a time. A value flag takes the next
/// word; its errors read `<flag> <what>`, e.g. `--insts needs a number`.
/// `--help` or `-h` in a flag's place prints the usage text and exits 0.
pub struct Flags<'a> {
    words: std::slice::Iter<'a, String>,
    usage: &'a Usage,
    /// The flag read last.
    flag: &'a str,
    /// The mode's name in "unknown … option" errors (`"client "`, …).
    mode: &'static str,
    /// A missing value reads `<flag> needs a value` instead of the
    /// flag's own `what`.
    pub generic_missing: bool,
}

impl<'a> Flags<'a> {
    /// Reads `argv`, reporting misuse through `usage`.
    pub fn new(argv: &'a [String], usage: &'a Usage, mode: &'static str) -> Self {
        Flags {
            words: argv.iter(),
            usage,
            flag: "",
            mode,
            generic_missing: false,
        }
    }

    /// A usage error `<flag> <what>`.
    pub fn fail(&self, what: &str) -> ! {
        self.usage.bail(&format!("{} {what}", self.flag))
    }

    /// The current flag's value.
    pub fn value(&mut self, what: &str) -> String {
        match self.words.next() {
            Some(v) => v.clone(),
            None if self.generic_missing => self.fail("needs a value"),
            None => self.fail(what),
        }
    }

    /// The current flag's value as `read` makes it; `None` is a usage
    /// error `<flag> <what>`.
    pub fn value_with<T>(&mut self, what: &str, read: impl FnOnce(&str) -> Option<T>) -> T {
        read(&self.value(what)).unwrap_or_else(|| self.fail(what))
    }

    /// The current flag's value parsed as a `T`.
    pub fn parse<T: FromStr>(&mut self, what: &str) -> T {
        self.value_with(what, |v| v.parse().ok())
    }

    /// The current flag's value as a number.
    pub fn number<T: FromStr>(&mut self) -> T {
        self.parse("needs a number")
    }

    /// The current flag's value as a comma-separated list.
    pub fn list(&mut self) -> Vec<String> {
        let v = self.value("needs a value");
        let items = v.split(',').map(str::trim).filter(|s| !s.is_empty());
        items.map(str::to_owned).collect()
    }

    /// The usage error for an unknown word.
    pub fn unknown(&self) -> ! {
        self.usage
            .bail(&format!("unknown {}option {}", self.mode, self.flag))
    }
}

impl<'a> Iterator for Flags<'a> {
    type Item = &'a str;

    /// The next flag.
    fn next(&mut self) -> Option<&'a str> {
        let word = self.words.next()?;
        self.usage.exit_on_help(word);
        self.flag = word;
        Some(word)
    }
}
