//! Recursive-descent parser for RPCL.

use crate::ast::*;
use crate::lexer::{tokenize, Token, TokenKind};
use crate::Error;
use std::collections::{HashMap, HashSet};

/// Parse an RPCL source file into a [`Spec`].
///
/// Constant references (`case SOME_CONST:`, `opaque buf<MAX>`) are resolved
/// against `const` and `enum` definitions that appear earlier in the file,
/// matching rpcgen's single-pass behaviour.
pub fn parse(source: &str) -> Result<Spec, Error> {
    let tokens = tokenize(source)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        consts: HashMap::new(),
        enums: HashMap::new(),
        lists: HashSet::new(),
        typedefs: HashMap::new(),
    };
    p.spec()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Resolved `const` values (also enum variants).
    consts: HashMap<String, i64>,
    /// enum type name → variants, for union discriminant resolution.
    enums: HashMap<String, Vec<(String, i64)>>,
    /// Optional-data list nodes ([`StructDef::list_item`]) defined so far.
    lists: HashSet<String>,
    /// typedef name → its declaration, for the sizes of landing heads.
    typedefs: HashMap<String, Declaration>,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, Error> {
        Err(Error {
            line: self.line(),
            message: message.into(),
        })
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), Error> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {kind}, found {}", self.peek()))
        }
    }

    fn expect_ident(&mut self) -> Result<String, Error> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), Error> {
        match self.peek() {
            TokenKind::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected `{kw}`, found {other}")),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s == kw)
    }

    /// A number literal or a previously defined constant name.
    fn value(&mut self) -> Result<(i64, String), Error> {
        match self.peek().clone() {
            TokenKind::Number(n) => {
                self.bump();
                Ok((n, n.to_string()))
            }
            TokenKind::Ident(name) => {
                if let Some(&v) = self.consts.get(&name) {
                    self.bump();
                    Ok((v, name))
                } else {
                    self.err(format!("unknown constant `{name}`"))
                }
            }
            other => self.err(format!("expected value, found {other}")),
        }
    }

    fn spec(&mut self) -> Result<Spec, Error> {
        let (mut definitions, mut consts) = (Vec::new(), Vec::new());
        while self.peek() != &TokenKind::Eof {
            let line = self.line();
            definitions.push(self.definition()?);
            if let Some(Definition::Const(c)) = definitions.last() {
                consts.push((line, c.clone()));
            }
        }
        // Tags are applied once every struct is known: a tag may precede
        // the struct it names.
        for (line, c) in consts {
            tag_struct(&mut definitions, &c).map_err(|message| Error { line, message })?;
        }
        Ok(Spec { definitions })
    }

    fn definition(&mut self) -> Result<Definition, Error> {
        match self.peek().clone() {
            TokenKind::Ident(kw) => match kw.as_str() {
                "const" => self.const_def(),
                "enum" => self.enum_def(),
                "struct" => self.struct_def(),
                "union" => self.union_def(),
                "typedef" => self.typedef_def(),
                "program" => self.program_def(),
                other => self.err(format!("expected definition keyword, found `{other}`")),
            },
            other => self.err(format!("expected definition, found {other}")),
        }
    }

    fn const_def(&mut self) -> Result<Definition, Error> {
        self.expect_keyword("const")?;
        let name = self.expect_ident()?;
        self.expect(&TokenKind::Eq)?;
        let (value, _) = self.value()?;
        self.expect(&TokenKind::Semi)?;
        if self.consts.insert(name.clone(), value).is_some() {
            return self.err(format!("duplicate constant `{name}`"));
        }
        Ok(Definition::Const(ConstDef { name, value }))
    }

    fn enum_def(&mut self) -> Result<Definition, Error> {
        self.expect_keyword("enum")?;
        let name = self.expect_ident()?;
        self.expect(&TokenKind::LBrace)?;
        let mut variants = Vec::new();
        let mut next_implicit = 0i64;
        loop {
            let vname = self.expect_ident()?;
            let value = if self.peek() == &TokenKind::Eq {
                self.bump();
                let (v, _) = self.value()?;
                v
            } else {
                // XDR requires explicit values, but C-style implicit
                // numbering is common in the wild; follow C semantics.
                next_implicit
            };
            next_implicit = value + 1;
            self.consts.insert(vname.clone(), value);
            variants.push((vname, value));
            match self.bump() {
                TokenKind::Comma => {
                    // Allow trailing comma before `}`.
                    if self.peek() == &TokenKind::RBrace {
                        self.bump();
                        break;
                    }
                }
                TokenKind::RBrace => break,
                other => return self.err(format!("expected `,` or `}}`, found {other}")),
            }
        }
        self.expect(&TokenKind::Semi)?;
        self.enums.insert(name.clone(), variants.clone());
        Ok(Definition::Enum(EnumDef { name, variants }))
    }

    fn struct_def(&mut self) -> Result<Definition, Error> {
        self.expect_keyword("struct")?;
        let name = self.expect_ident()?;
        self.expect(&TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while self.peek() != &TokenKind::RBrace {
            let decl = self.declaration()?;
            self.expect(&TokenKind::Semi)?;
            fields.push(decl);
        }
        self.expect(&TokenKind::RBrace)?;
        self.expect(&TokenKind::Semi)?;
        if fields.is_empty() {
            return self.err(format!("struct `{name}` has no members"));
        }
        let def = StructDef {
            name,
            fields,
            magic: None,
            version: None,
        };
        if def.links_to_itself() {
            if def.list_item().is_none() {
                return self.err(format!(
                    "list node `{}` must hold exactly one item before its `*next`; \
                     declare a struct for the item",
                    def.name
                ));
            }
            self.lists.insert(def.name.clone());
        }
        Ok(Definition::Struct(def))
    }

    fn union_def(&mut self) -> Result<Definition, Error> {
        self.expect_keyword("union")?;
        let name = self.expect_ident()?;
        self.expect_keyword("switch")?;
        self.expect(&TokenKind::LParen)?;
        let discriminant = self.declaration()?;
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::LBrace)?;

        let mut cases: Vec<UnionCase> = Vec::new();
        let mut default = None;
        loop {
            if self.at_keyword("case") {
                let mut values = Vec::new();
                // One or more stacked `case X:` labels share a declaration.
                while self.at_keyword("case") {
                    self.bump();
                    let (v, spelling) = self.value()?;
                    self.expect(&TokenKind::Colon)?;
                    values.push((v, spelling));
                }
                let decl = self.void_or_declaration()?;
                self.expect(&TokenKind::Semi)?;
                cases.push(UnionCase { values, decl });
            } else if self.at_keyword("default") {
                self.bump();
                self.expect(&TokenKind::Colon)?;
                let decl = self.void_or_declaration()?;
                self.expect(&TokenKind::Semi)?;
                if default.replace(decl).is_some() {
                    return self.err("duplicate `default:` arm");
                }
            } else {
                break;
            }
        }
        self.expect(&TokenKind::RBrace)?;
        self.expect(&TokenKind::Semi)?;
        if cases.is_empty() {
            return self.err(format!("union `{name}` has no case arms"));
        }
        // Reject duplicate case values across arms.
        let mut seen = std::collections::HashSet::new();
        for c in &cases {
            for (v, _) in &c.values {
                if !seen.insert(*v) {
                    return self.err(format!("duplicate case value {v} in union `{name}`"));
                }
            }
        }
        Ok(Definition::Union(UnionDef {
            name,
            discriminant,
            cases,
            default,
        }))
    }

    fn typedef_def(&mut self) -> Result<Definition, Error> {
        self.expect_keyword("typedef")?;
        let decl = self.declaration()?;
        self.expect(&TokenKind::Semi)?;
        self.typedefs.insert(decl.name.clone(), decl.clone());
        Ok(Definition::Typedef(TypedefDef { decl }))
    }

    fn program_def(&mut self) -> Result<Definition, Error> {
        self.expect_keyword("program")?;
        let name = self.expect_ident()?;
        self.expect(&TokenKind::LBrace)?;
        let mut versions = Vec::new();
        while self.at_keyword("version") {
            versions.push(self.version_def()?);
        }
        self.expect(&TokenKind::RBrace)?;
        self.expect(&TokenKind::Eq)?;
        let (number, _) = self.value()?;
        self.expect(&TokenKind::Semi)?;
        if versions.is_empty() {
            return self.err(format!("program `{name}` has no versions"));
        }
        self.consts.insert(name.clone(), number);
        Ok(Definition::Program(ProgramDef {
            name,
            number,
            versions,
        }))
    }

    fn version_def(&mut self) -> Result<VersionDef, Error> {
        self.expect_keyword("version")?;
        let name = self.expect_ident()?;
        self.expect(&TokenKind::LBrace)?;
        let mut procedures = Vec::new();
        while self.peek() != &TokenKind::RBrace {
            procedures.push(self.procedure_def()?);
        }
        self.expect(&TokenKind::RBrace)?;
        self.expect(&TokenKind::Eq)?;
        let (number, _) = self.value()?;
        self.expect(&TokenKind::Semi)?;
        self.consts.insert(name.clone(), number);
        // Reject duplicate procedure numbers or names.
        let mut nums = std::collections::HashSet::new();
        let mut names = std::collections::HashSet::new();
        for p in &procedures {
            if !nums.insert(p.number) {
                return self.err(format!("duplicate procedure number {}", p.number));
            }
            if !names.insert(p.name.clone()) {
                return self.err(format!("duplicate procedure name `{}`", p.name));
            }
        }
        Ok(VersionDef {
            name,
            number,
            procedures,
        })
    }

    fn procedure_def(&mut self) -> Result<ProcedureDef, Error> {
        // Optional leading qualifiers (RPCL extensions), in any order:
        // `idempotent` marks the procedure safe for automatic client-side
        // retry; `batchable` marks it recordable into a command batch;
        // `inline` marks it answerable without waiting (server poll thread);
        // `admin` marks it exempt from admission control; `lands` lands its
        // last argument as it arrives; `cost(ns)` declares its host-side
        // cost; `api(method, "name")` its typed client method.
        const FLAGS: [&str; 5] = ["idempotent", "batchable", "inline", "admin", "lands"];
        let mut flags = [false; FLAGS.len()];
        let (mut cost_ns, mut api) = (None, None);
        loop {
            if self.at_keyword("cost") {
                self.bump();
                if cost_ns.replace(self.cost()?).is_some() {
                    return self.err("duplicate `cost` attribute");
                }
            } else if self.at_keyword("api") {
                self.bump();
                if api.replace(self.api()?).is_some() {
                    return self.err("duplicate `api` attribute");
                }
            } else if let Some(i) = FLAGS.iter().position(|&flag| self.at_keyword(flag)) {
                // A flag given twice is not taken twice: it ends the
                // attributes, and the result type it is read as fails.
                if std::mem::replace(&mut flags[i], true) {
                    break;
                }
                self.bump();
            } else {
                break;
            }
        }
        let [idempotent, batchable, inline, admin, lands] = flags;
        let result = self.type_spec()?;
        let name = self.expect_ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        if self.peek() != &TokenKind::RParen {
            loop {
                args.push(self.type_spec()?);
                if self.peek() == &TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::Eq)?;
        let (number, _) = self.value()?;
        self.expect(&TokenKind::Semi)?;
        // `(void)` normalizes to no arguments.
        if args.len() == 1 && args[0].is_void() {
            args.clear();
        }
        if args.iter().any(TypeSpec::is_void) {
            return self.err("`void` cannot be combined with other arguments");
        }
        for ty in args.iter().chain([&result]) {
            self.refuse_plain_list(ty)?;
        }
        // Batch replies carry one status int per sub-op, and a landed call
        // answers what became of its landing, so only procedures whose whole
        // result is that status can be deferred into a batch or land.
        if (batchable || lands) && result != TypeSpec::Int {
            let attr = if batchable { "batchable" } else { "lands" };
            return self.err(format!(
                "`{attr}` procedure `{name}` must return plain `int`"
            ));
        }
        let lands = lands.then(|| self.landing_head(&name, &args)).transpose()?;
        Ok(ProcedureDef {
            name,
            number,
            result,
            args,
            idempotent,
            batchable,
            inline,
            admin,
            cost_ns,
            api,
            lands,
        })
    }

    /// The bytes ahead of the landing opaque of `name(args)`, its last
    /// argument, of variable length: the arguments ahead are each a scalar,
    /// an enum or a typedef of one, so their wire size is fixed.
    fn landing_head(&self, name: &str, args: &[TypeSpec]) -> Result<u64, Error> {
        let var_opaque = |ty: &TypeSpec| match ty {
            TypeSpec::Named(n) => self.typedefs.get(n).is_some_and(|d| {
                d.ty == TypeSpec::Opaque && matches!(d.kind, DeclKind::VarArray(_))
            }),
            ty => *ty == TypeSpec::Opaque,
        };
        let refuse = |why: &str| self.err(format!("`lands` procedure `{name}` {why}"));
        let Some((_, ahead)) = args.split_last().filter(|(last, _)| var_opaque(last)) else {
            return refuse("must end in an opaque<>");
        };
        let head: Option<u64> = ahead.iter().map(|ty| self.fixed_size(ty)).sum();
        head.map_or_else(|| refuse("has a variable size ahead"), Ok)
    }

    /// The wire size of a scalar, an enum or a typedef of one; `None` for
    /// any other type.
    fn fixed_size(&self, ty: &TypeSpec) -> Option<u64> {
        match ty {
            TypeSpec::Int | TypeSpec::UInt | TypeSpec::Float | TypeSpec::Bool => Some(4),
            TypeSpec::Hyper | TypeSpec::UHyper | TypeSpec::Double => Some(8),
            TypeSpec::Named(n) if self.enums.contains_key(n) => Some(4),
            TypeSpec::Named(n) => (self.typedefs.get(n))
                .filter(|d| d.kind == DeclKind::Plain)
                .and_then(|d| self.fixed_size(&d.ty)),
            _ => None,
        }
    }

    /// The `(method, "name")` of an `api` attribute.
    fn api(&mut self) -> Result<Api, Error> {
        self.expect(&TokenKind::LParen)?;
        let method = self.expect_ident()?;
        self.expect(&TokenKind::Comma)?;
        let TokenKind::Str(name) = self.bump() else {
            return self.err("`api` takes a method and its API name as a string");
        };
        self.expect(&TokenKind::RParen)?;
        Ok(Api { method, name })
    }

    /// The `(ns)` of a `cost` attribute: a non-negative number literal.
    fn cost(&mut self) -> Result<u64, Error> {
        self.expect(&TokenKind::LParen)?;
        let TokenKind::Number(ns @ 0..) = self.bump() else {
            return self.err("`cost` takes a non-negative number of nanoseconds");
        };
        self.expect(&TokenKind::RParen)?;
        Ok(ns as u64)
    }

    /// `void` (as a bare union-arm body) or a full declaration.
    fn void_or_declaration(&mut self) -> Result<Option<Declaration>, Error> {
        if self.at_keyword("void") {
            self.bump();
            Ok(None)
        } else {
            Ok(Some(self.declaration()?))
        }
    }

    fn type_spec(&mut self) -> Result<TypeSpec, Error> {
        let ident = self.expect_ident()?;
        Ok(match ident.as_str() {
            "int" => TypeSpec::Int,
            "unsigned" => {
                // `unsigned int`, `unsigned hyper`, or bare `unsigned`.
                match self.peek() {
                    TokenKind::Ident(s) if s == "int" => {
                        self.bump();
                        TypeSpec::UInt
                    }
                    TokenKind::Ident(s) if s == "hyper" => {
                        self.bump();
                        TypeSpec::UHyper
                    }
                    TokenKind::Ident(s) if s == "char" || s == "short" => {
                        // rpcgen extensions; map to u32 like rpcgen does.
                        self.bump();
                        TypeSpec::UInt
                    }
                    _ => TypeSpec::UInt,
                }
            }
            "hyper" => TypeSpec::Hyper,
            "float" => TypeSpec::Float,
            "double" => TypeSpec::Double,
            "quadruple" => return self.err("quadruple-precision floats are not supported"),
            "bool" => TypeSpec::Bool,
            "void" => TypeSpec::Void,
            "string" => TypeSpec::StringType,
            "opaque" => TypeSpec::Opaque,
            "struct" | "enum" | "union" => {
                // `struct foo bar` style: the tag is the type name.
                TypeSpec::Named(self.expect_ident()?)
            }
            _ => TypeSpec::Named(ident),
        })
    }

    /// A list node stands for the list it heads only behind a pointer
    /// (`node *`, directly or through a typedef): a plain `node` would be
    /// one non-empty list, which has another wire form.
    fn refuse_plain_list(&self, ty: &TypeSpec) -> Result<(), Error> {
        match ty {
            TypeSpec::Named(n) if self.lists.contains(n) => self.err(format!(
                "list node `{n}` can only be used as `{n} *` (typedef one for a procedure)"
            )),
            _ => Ok(()),
        }
    }

    fn declaration(&mut self) -> Result<Declaration, Error> {
        let ty = self.type_spec()?;
        if ty.is_void() {
            return self.err("`void` is not a valid member type");
        }
        let kind_is_pointer = if self.peek() == &TokenKind::Star {
            self.bump();
            true
        } else {
            self.refuse_plain_list(&ty)?;
            false
        };
        let name = self.expect_ident()?;
        let kind = if kind_is_pointer {
            DeclKind::Pointer
        } else {
            match self.peek() {
                TokenKind::LBracket => {
                    self.bump();
                    let (n, _) = self.value()?;
                    if n <= 0 {
                        return self.err("fixed array size must be positive");
                    }
                    self.expect(&TokenKind::RBracket)?;
                    DeclKind::FixedArray(n as u64)
                }
                TokenKind::Lt => {
                    self.bump();
                    let max = if self.peek() == &TokenKind::Gt {
                        None
                    } else {
                        let (n, _) = self.value()?;
                        if n <= 0 {
                            return self.err("array bound must be positive");
                        }
                        Some(n as u64)
                    };
                    self.expect(&TokenKind::Gt)?;
                    DeclKind::VarArray(max)
                }
                _ => DeclKind::Plain,
            }
        };
        // Validate decoration compatibility.
        match (&ty, &kind) {
            (TypeSpec::Opaque, DeclKind::Plain | DeclKind::Pointer) => {
                return self.err("`opaque` requires an array declaration")
            }
            (TypeSpec::StringType, k) if !matches!(k, DeclKind::VarArray(_)) => {
                return self.err("`string` requires `<max>` or `<>`")
            }
            _ => {}
        }
        Ok(Declaration { name, ty, kind })
    }
}

/// Apply `c` if it is a tag: `MAGIC_<type>` or `VERSION_<type>` names a
/// struct of the file, whose encoding then leads with the word.
fn tag_struct(definitions: &mut [Definition], c: &ConstDef) -> Result<(), String> {
    let (ty, magic) = match (
        c.name.strip_prefix("MAGIC_"),
        c.name.strip_prefix("VERSION_"),
    ) {
        (Some(ty), _) => (ty, true),
        (_, Some(ty)) => (ty, false),
        _ => return Ok(()),
    };
    let tagged = definitions.iter_mut().find_map(|d| match d {
        Definition::Struct(s) if s.name == ty && s.list_item().is_none() => Some(s),
        _ => None,
    });
    let s = tagged.ok_or_else(|| format!("`{}` tags `{ty}`, not a struct of this file", c.name))?;
    let word = u32::try_from(c.value).map_err(|_| format!("`{}` is not a 32-bit word", c.name))?;
    let slot = if magic { &mut s.magic } else { &mut s.version };
    *slot = Some(word);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_consts_and_enum() {
        let spec = parse("const A = 5; const B = A; enum color { RED = 1, GREEN = 2 };").unwrap();
        assert_eq!(spec.definitions.len(), 3);
        match &spec.definitions[1] {
            Definition::Const(c) => assert_eq!(c.value, 5),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_struct_with_all_decorations() {
        let spec = parse(
            r#"struct s {
                int plain;
                unsigned hyper big;
                opaque fixed[16];
                opaque var<1024>;
                opaque unbounded<>;
                string name<64>;
                int nums[4];
                s *link;
                double samples<>;
            };"#,
        )
        .unwrap();
        let Definition::Struct(s) = &spec.definitions[0] else {
            panic!()
        };
        assert_eq!(s.fields.len(), 9);
        assert_eq!(s.fields[2].kind, DeclKind::FixedArray(16));
        assert_eq!(s.fields[3].kind, DeclKind::VarArray(Some(1024)));
        assert_eq!(s.fields[4].kind, DeclKind::VarArray(None));
        assert_eq!(s.fields[7].kind, DeclKind::Pointer);
        assert_eq!(
            s.list_item(),
            None,
            "a link before the last member is no list"
        );
    }

    /// RFC 4506 §4.19: a struct of one item and a last `*next` to itself is
    /// a list node. It must hold exactly one item, and it names the list
    /// only behind a pointer — a plain use would be another wire form.
    #[test]
    fn list_nodes_hold_one_item_and_are_used_by_pointer() {
        let spec = parse(
            "struct node { string item<>; node *next; }; typedef node *list;
             struct holder { node *head; };
             program P { version V { list DUMP(void) = 1; } = 1; } = 9;",
        )
        .unwrap();
        let Definition::Struct(node) = &spec.definitions[0] else {
            panic!()
        };
        assert_eq!(node.list_item().unwrap().name, "item");
        for (src, why) in [
            ("struct n { int a; int b; n *next; };", "two items"),
            ("struct n { n *next; };", "no item"),
            ("struct n { int a; n *next; }; struct h { n plain; };", "plain member"),
            ("struct n { int a; n *next; }; typedef n plain;", "plain typedef"),
            (
                "struct n { int a; n *next; }; program P { version V { n GET(void) = 1; } = 1; } = 9;",
                "plain result",
            ),
            (
                "struct n { int a; n *next; }; program P { version V { int PUT(n) = 1; } = 1; } = 9;",
                "plain argument",
            ),
        ] {
            assert!(parse(src).is_err(), "{why} accepted");
        }
    }

    #[test]
    fn parse_union() {
        let spec = parse(
            r#"union ptr_result switch (int err) {
                case 0: unsigned hyper ptr;
                case 1:
                case 2: int detail;
                default: void;
            };"#,
        )
        .unwrap();
        let Definition::Union(u) = &spec.definitions[0] else {
            panic!()
        };
        assert_eq!(u.cases.len(), 2);
        assert_eq!(u.cases[1].values.len(), 2);
        assert_eq!(u.default, Some(None));
    }

    #[test]
    fn union_with_enum_discriminant() {
        let spec = parse(
            r#"enum kind { K_A = 0, K_B = 1 };
               union v switch (kind k) {
                 case K_A: int a;
                 case K_B: void;
               };"#,
        )
        .unwrap();
        let Definition::Union(u) = &spec.definitions[1] else {
            panic!()
        };
        assert_eq!(u.cases[0].values[0], (0, "K_A".into()));
    }

    #[test]
    fn duplicate_case_rejected() {
        assert!(parse("union u switch (int d) { case 0: int a; case 0: int b; };").is_err());
    }

    #[test]
    fn parse_program() {
        let spec = parse(
            r#"program CRICKET {
                version CRICKET_V1 {
                    void NULLPROC(void) = 0;
                    int ADD(int, int) = 1;
                } = 1;
                version CRICKET_V2 {
                    void NULLPROC(void) = 0;
                } = 2;
            } = 99;"#,
        )
        .unwrap();
        let Definition::Program(p) = &spec.definitions[0] else {
            panic!()
        };
        assert_eq!(p.number, 99);
        assert_eq!(p.versions.len(), 2);
        assert_eq!(p.versions[0].procedures[1].args.len(), 2);
        assert!(p.versions[0].procedures[0].args.is_empty());
    }

    #[test]
    fn typedef_forms() {
        let spec =
            parse("typedef opaque mem_data<>; typedef unsigned hyper ptr; typedef int four[4];")
                .unwrap();
        assert_eq!(spec.definitions.len(), 3);
    }

    #[test]
    fn const_in_bound() {
        let spec = parse("const MAX = 512; struct s { opaque buf<MAX>; };").unwrap();
        let Definition::Struct(s) = &spec.definitions[1] else {
            panic!()
        };
        assert_eq!(s.fields[0].kind, DeclKind::VarArray(Some(512)));
    }

    #[test]
    fn forward_const_reference_rejected() {
        assert!(parse("struct s { opaque buf<MAX>; }; const MAX = 512;").is_err());
    }

    #[test]
    fn duplicate_proc_number_rejected() {
        assert!(
            parse("program P { version V { void A(void) = 1; void B(void) = 1; } = 1; } = 9;")
                .is_err()
        );
    }

    #[test]
    fn error_reports_line() {
        let err = parse("const A = 1;\nstruct s {\n  int 5bad;\n};").unwrap_err();
        assert_eq!(err.line, 3);
    }

    /// `cost(ns)` sits among the other attributes in any order, once, with
    /// a non-negative number literal for its value.
    #[test]
    fn cost_parses_in_any_attribute_order_and_refuses_a_bad_value() {
        let spec = parse(
            "program P { version V {
                cost(5) idempotent int A(void) = 1;
                idempotent inline cost(0x10) admin int B(void) = 2;
                batchable cost(7) int C(int) = 3;
                int D(void) = 4;
                cost(3) lands batchable int E(unsigned hyper, opaque) = 5;
            } = 1; } = 9;",
        )
        .unwrap();
        let Definition::Program(p) = &spec.definitions[0] else {
            panic!()
        };
        let procs = &p.versions[0].procedures;
        let costs: Vec<_> = procs.iter().map(|p| p.cost_ns).collect();
        assert_eq!(costs, [Some(5), Some(16), Some(7), None, Some(3)]);
        assert!(procs[0].idempotent && procs[1].inline && procs[1].admin && procs[2].batchable);
        assert!(procs[4].batchable && procs[4].lands == Some(8) && procs[3].lands.is_none());
        for (attr, why) in [
            ("cost", "missing value"),
            ("cost()", "empty value"),
            ("cost(fast)", "non-numeric value"),
            ("cost(N)", "a constant, not a number"),
            ("cost(-1)", "negative value"),
            ("cost(1) cost(2)", "duplicate"),
            ("cost(1) idempotent cost(1)", "duplicate"),
        ] {
            let src = format!(
                "const N = 4; program P {{ version V {{ {attr} int A(void) = 1; }} = 1; }} = 9;"
            );
            assert!(parse(&src).is_err(), "{why} accepted: {attr}");
        }
    }

    /// `api(method, "name")` sits among the other attributes in any order,
    /// once, with a method identifier and a string for the name.
    #[test]
    fn api_parses_in_any_attribute_order_and_refuses_a_bad_value() {
        let spec = parse(
            r#"typedef int status; program P { version V {
                api(a, "cudaA") cost(5) idempotent int A(void) = 1;
                idempotent inline api(b, "cudaMemcpy(D2D)") admin int B(void) = 2;
                batchable cost(7) api(c, "") int C(int) = 3;
                int D(void) = 4;
                api(e, "cuE") lands int E(unsigned hyper, status, opaque) = 5;
            } = 1; } = 9;"#,
        )
        .unwrap();
        let Definition::Program(p) = &spec.definitions[1] else {
            panic!()
        };
        let procs = &p.versions[0].procedures;
        let apis: Vec<_> = (procs.iter())
            .map(|p| p.api.as_ref().map(|a| (a.method.as_str(), a.name.as_str())))
            .collect();
        assert_eq!(
            apis,
            [
                Some(("a", "cudaA")),
                Some(("b", "cudaMemcpy(D2D)")),
                Some(("c", "")),
                None,
                Some(("e", "cuE")),
            ]
        );
        assert_eq!(procs[4].lands, Some(12), "a typedef of int ahead counts 4");
        assert_eq!(procs[0].cost_ns, Some(5));
        assert!(procs[0].idempotent && procs[1].inline && procs[1].admin && procs[2].batchable);
        for (attr, why) in [
            (r#"api(a, "x") api(b, "y")"#, "duplicate"),
            (r#"api(a, "x") idempotent api(a, "x")"#, "duplicate"),
            (r#"api("x")"#, "missing method"),
            ("api(a)", "missing name"),
            ("api(a, )", "empty name"),
            ("api(a, x)", "a name that is not a string"),
            ("api(a, 5)", "a number for the name"),
            (r#"api(a, "x""#, "unclosed"),
            ("api", "no arguments"),
        ] {
            let src = format!("program P {{ version V {{ {attr} int A(void) = 1; }} = 1; }} = 9;");
            assert!(parse(&src).is_err(), "{why} accepted: {attr}");
        }
    }

    /// `MAGIC_<type>` / `VERSION_<type>` tag a struct of the file, before or
    /// after it; any other target, or a value past 32 bits, is refused.
    #[test]
    fn tags_name_a_struct() {
        let spec = parse(
            "const MAGIC_s = 0x53; struct s { int a; }; const VERSION_s = 2;
             struct t { int a; }; const MAGICAL = 1; const VERSIONS = 2;",
        )
        .unwrap();
        let structs: Vec<_> = (spec.definitions.iter())
            .filter_map(|d| match d {
                Definition::Struct(s) => Some((s.magic, s.version)),
                _ => None,
            })
            .collect();
        assert_eq!(structs, [(Some(0x53), Some(2)), (None, None)]);
        for (src, why) in [
            ("const MAGIC_nope = 1;", "no such type"),
            (
                "struct s { int a; }; const VERSION_S = 1;",
                "another spelling",
            ),
            ("enum e { A = 0 }; const MAGIC_e = 1;", "an enum"),
            ("typedef int t; const VERSION_t = 1;", "a typedef"),
            (
                "union u switch (int d) { case 0: int a; }; const MAGIC_u = 1;",
                "a union",
            ),
            (
                "struct n { int a; n *next; }; const MAGIC_n = 1;",
                "a list node",
            ),
            (
                "struct s { int a; }; const MAGIC_s = 4294967296;",
                "past 32 bits",
            ),
            ("struct s { int a; }; const VERSION_s = -1;", "negative"),
        ] {
            let err = parse(src).err();
            assert!(err.is_some(), "{why} accepted");
            assert_eq!(err.unwrap().line, 1, "{why}");
        }
    }

    #[test]
    fn opaque_without_array_rejected() {
        assert!(parse("struct s { opaque x; };").is_err());
        assert!(parse("struct s { string x; };").is_err());
    }
}
