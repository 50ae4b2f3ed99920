//! Rust code generation from a parsed RPCL [`Spec`].
//!
//! The emitted module contains, in order: constants, data types with
//! `xdr::Xdr` impls (optional-data lists as `Vec` newtypes, see
//! [`StructDef::list_item`]), per-version procedure-number modules (with
//! one `is_*` table per procedure attribute), typed client stubs,
//! service traits + dispatchers + batch-op decoders, and the typed client
//! API macro of the procedures that declare `api`. The output is
//! deterministic (source order preserved) so it can be checked against
//! golden files.

use crate::ast::*;
use std::collections::HashMap;

/// Code generation options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Path of the `xdr` crate in the generated code.
    pub xdr_path: String,
    /// Path of the `oncrpc` crate in the generated code.
    pub oncrpc_path: String,
    /// Emit client stubs.
    pub client: bool,
    /// Emit service traits and dispatchers.
    pub server: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            xdr_path: "xdr".into(),
            oncrpc_path: "oncrpc".into(),
            client: true,
            server: true,
        }
    }
}

/// Generate Rust source for `spec`.
pub(crate) fn generate(spec: &Spec, opts: &Options) -> String {
    let mut g = Generator {
        out: String::with_capacity(16 * 1024),
        opts: opts.clone(),
        enums: spec
            .definitions
            .iter()
            .filter_map(|d| match d {
                Definition::Enum(e) => Some(e.name.clone()),
                _ => None,
            })
            .collect(),
        opaque_aliases: spec
            .definitions
            .iter()
            .filter_map(|d| match d {
                Definition::Typedef(t)
                    if matches!(
                        (&t.decl.ty, &t.decl.kind),
                        (TypeSpec::Opaque, DeclKind::VarArray(_))
                    ) =>
                {
                    Some(t.decl.name.clone())
                }
                _ => None,
            })
            .collect(),
        unions: spec
            .definitions
            .iter()
            .filter_map(|d| match d {
                Definition::Union(u) => Some(u.clone()),
                _ => None,
            })
            .collect(),
        lists: spec
            .definitions
            .iter()
            .filter_map(|d| match d {
                Definition::Struct(s) if s.list_item().is_some() => Some(s.name.clone()),
                _ => None,
            })
            .collect(),
        derives: HashMap::new(),
    };
    g.file_header();
    for def in &spec.definitions {
        match def {
            Definition::Const(c) => g.const_def(c),
            Definition::Enum(e) => g.enum_def(e),
            Definition::Struct(s) => g.struct_def(s),
            Definition::Union(u) => g.union_def(u),
            Definition::Typedef(t) => g.typedef_def(t),
            Definition::Program(p) => g.program_def(p),
        }
    }
    g.out
}

/// Traits a generated type derives beyond `Debug`, `Clone` and
/// `PartialEq`, which every one has: each only when every member has it.
#[derive(Clone, Copy, Default)]
struct Derives {
    copy: bool,
    default: bool,
}

impl Derives {
    const ALL: Self = Self {
        copy: true,
        default: true,
    };
}

/// The client stubs emitted per procedure (see [`Generator::stub_open`]).
#[derive(Clone, Copy)]
enum Stub {
    /// `name(&mut self, ..) -> RpcResult<Result>`, result decoded owned.
    Owned,
    /// `name_into(&mut self, .., dst) -> RpcResult<i32>` for bulk-union
    /// results: the payload lands in the caller's `dst`.
    Into,
    /// `name_record(batch, ..)` for batchable procedures.
    Record,
}

struct Generator {
    out: String,
    opts: Options,
    /// Names of RPCL enum types (they decode differently from structs in
    /// union discriminants).
    enums: Vec<String>,
    /// Names of `typedef opaque foo<>` aliases: procedure arguments of these
    /// types are bulk payloads and use the zero-copy borrowed/deferred path.
    opaque_aliases: Vec<String>,
    /// The union types, to classify procedure results (see
    /// [`Generator::bulk_union_arm`]).
    unions: Vec<UnionDef>,
    /// Names of optional-data list nodes ([`StructDef::list_item`]).
    lists: Vec<String>,
    /// What each type emitted so far derives, by RPCL name.
    derives: HashMap<String, Derives>,
}

impl Generator {
    fn line(&mut self, s: &str) {
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn xdr(&self) -> &str {
        &self.opts.xdr_path
    }

    fn rpc(&self) -> &str {
        &self.opts.oncrpc_path
    }

    fn file_header(&mut self) {
        self.line("// Generated by rpclgen (cricket-rpcl). Do not edit by hand.");
        self.line("");
    }

    fn const_def(&mut self, c: &ConstDef) {
        self.line(&format!(
            "pub const {}: i64 = {};",
            rust_const_name(&c.name),
            c.value
        ));
        self.line("");
    }

    // ---- type helpers -------------------------------------------------

    /// Rust spelling of a base type.
    fn base_type(&self, ty: &TypeSpec) -> String {
        match ty {
            TypeSpec::Int => "i32".into(),
            TypeSpec::UInt => "u32".into(),
            TypeSpec::Hyper => "i64".into(),
            TypeSpec::UHyper => "u64".into(),
            TypeSpec::Float => "f32".into(),
            TypeSpec::Double => "f64".into(),
            TypeSpec::Bool => "bool".into(),
            TypeSpec::Void => "()".into(),
            TypeSpec::Named(n) => rust_type_name(n),
            TypeSpec::Opaque | TypeSpec::StringType => {
                unreachable!("opaque/string handled by declaration kind")
            }
        }
    }

    /// Rust type of a full declaration.
    fn decl_type(&self, d: &Declaration) -> String {
        match (&d.ty, &d.kind) {
            (TypeSpec::Opaque, DeclKind::FixedArray(n)) => format!("[u8; {n}]"),
            (TypeSpec::Opaque, DeclKind::VarArray(_)) => "Vec<u8>".into(),
            (TypeSpec::StringType, DeclKind::VarArray(_)) => "String".into(),
            (ty, DeclKind::Plain) => self.base_type(ty),
            (ty, DeclKind::FixedArray(_)) => format!("Vec<{}>", self.base_type(ty)),
            (ty, DeclKind::VarArray(_)) => {
                format!("{}::XdrVec<{}>", self.xdr(), self.base_type(ty))
            }
            // Opaque/string with other decorations are rejected by the
            // parser; they cannot reach the arms below (base_type asserts).
            // A pointer to a list node is the list; only a pointer to a
            // struct or union, which may recurse, needs a box.
            (TypeSpec::Named(n), DeclKind::Pointer) if self.lists.contains(n) => rust_type_name(n),
            (ty, DeclKind::Pointer) if self.may_recurse(ty) => {
                format!("Option<Box<{}>>", self.base_type(ty))
            }
            (ty, DeclKind::Pointer) => format!("Option<{}>", self.base_type(ty)),
        }
    }

    /// Could `ty` contain itself? Only a named type that is not an enum.
    fn may_recurse(&self, ty: &TypeSpec) -> bool {
        matches!(ty, TypeSpec::Named(n) if !self.enums.contains(n))
    }

    /// What a declaration's Rust type ([`Self::decl_type`]) derives.
    fn decl_derives(&self, d: &Declaration) -> Derives {
        let base = match &d.ty {
            TypeSpec::Named(n) => self.derives.get(n).copied().unwrap_or_default(),
            _ => Derives::ALL,
        };
        let owned = Derives {
            copy: false,
            default: true,
        };
        match (&d.ty, &d.kind) {
            (_, DeclKind::Plain) => base,
            (TypeSpec::Opaque, DeclKind::FixedArray(n)) => Derives {
                copy: true,
                default: *n <= 32,
            },
            (TypeSpec::Opaque | TypeSpec::StringType, _) => owned,
            // An empty `Vec` is no default for an array of fixed length.
            (_, DeclKind::FixedArray(_)) => Derives::default(),
            // `XdrVec` derives `Default` only over a `Default` item.
            (_, DeclKind::VarArray(_)) => Derives {
                copy: false,
                default: base.default,
            },
            (TypeSpec::Named(n), DeclKind::Pointer) if self.lists.contains(n) => base,
            (ty, DeclKind::Pointer) if self.may_recurse(ty) => owned,
            (_, DeclKind::Pointer) => Derives {
                copy: base.copy,
                default: true,
            },
        }
    }

    /// Emit the derive line for a type deriving `d`, and remember it.
    fn derive_line(&mut self, name: &str, d: Derives) {
        let copy = if d.copy { "Copy, " } else { "" };
        let default = if d.default { "Default, " } else { "" };
        self.line(&format!(
            "#[derive(Debug, Clone, {copy}{default}PartialEq)]"
        ));
        self.derives.insert(name.to_string(), d);
    }

    /// Statement that encodes `expr` (a place expression of the decl's type).
    fn encode_stmt(&self, d: &Declaration, expr: &str) -> String {
        match (&d.ty, &d.kind) {
            (ty, DeclKind::FixedArray(_)) if !matches!(ty, TypeSpec::Opaque) => {
                format!("enc.put_array_fixed(&{expr});")
            }
            _ => format!("{}::Xdr::encode(&{expr}, enc);", self.xdr()),
        }
    }

    /// Expression decoding a value of the decl's type from `dec`
    /// (evaluates to `XdrResult<T>`-unwrapped value via `?`).
    fn decode_expr(&self, d: &Declaration) -> String {
        let xdr = self.xdr();
        match (&d.ty, &d.kind) {
            (TypeSpec::Opaque, DeclKind::VarArray(Some(max))) => {
                format!("dec.get_opaque_max({max})?.to_vec()")
            }
            (TypeSpec::StringType, DeclKind::VarArray(Some(max))) => format!(
                "{{ let s = dec.get_string()?; if s.len() > {max} {{ \
                 return Err({xdr}::XdrError::LengthOutOfBounds {{ len: s.len(), max: {max} }}); }} s }}"
            ),
            (ty, DeclKind::FixedArray(n)) if !matches!(ty, TypeSpec::Opaque) => {
                format!("dec.get_array_fixed::<{}>({n})?", self.base_type(ty))
            }
            (ty, DeclKind::VarArray(Some(max))) if !matches!(ty, TypeSpec::StringType) => {
                format!(
                    "{{ let v: {xdr}::XdrVec<{base}> = {xdr}::Xdr::decode(dec)?; \
                     if v.len() > {max} {{ return Err({xdr}::XdrError::LengthOutOfBounds {{ \
                     len: v.len(), max: {max} }}); }} v }}",
                    base = self.base_type(ty)
                )
            }
            _ => format!("{xdr}::Xdr::decode(dec)?"),
        }
    }

    // ---- result type classification -----------------------------------

    /// Detect the `data_result` shape: an int-discriminated union with
    /// exactly one payload arm carrying a bulk opaque, every other arm
    /// void. Neither end owns such a result: procedures returning one also
    /// get an `_into` stub that reads the payload into the caller's buffer
    /// and returns the discriminant, and their service methods write it
    /// through a reply sink (see [`Self::reply_sink_def`]) instead of
    /// returning it. Returns the payload arm's discriminant value.
    fn bulk_union_arm(&self, ty: &TypeSpec) -> Option<i64> {
        let TypeSpec::Named(name) = ty else {
            return None;
        };
        let u = self.unions.iter().find(|u| &u.name == name)?;
        if !matches!(u.discriminant.ty, TypeSpec::Int) || !matches!(&u.default, Some(None)) {
            return None;
        }
        let mut arm = None;
        for case in &u.cases {
            match &case.decl {
                None => {}
                Some(d)
                    if matches!(d.kind, DeclKind::Plain)
                        && self.is_bulk_opaque(&d.ty)
                        && case.values.len() == 1
                        && arm.is_none() =>
                {
                    arm = Some(case.values[0].0);
                }
                // Second payload arm, or any other shape: not this union.
                Some(_) => return None,
            }
        }
        arm
    }

    /// For a procedure result of the [`Self::bulk_union_arm`] shape: the
    /// payload arm's discriminant and the names of the union's reply sink
    /// and proof-of-reply token.
    fn reply_sink(&self, ty: &TypeSpec) -> Option<(i64, String, String)> {
        let arm = self.bulk_union_arm(ty)?;
        let name = self.base_type(ty);
        Some((arm, format!("{name}Reply"), format!("{name}Replied")))
    }

    /// For a union of the result shape, `switch (int err) { case 0: T x;
    /// default: void; }`: its value arm's variant and declaration.
    fn value_arm(u: &UnionDef) -> Option<(String, &Declaration)> {
        match (&u.discriminant.ty, u.cases.as_slice(), &u.default) {
            (TypeSpec::Int, [case @ UnionCase { decl: Some(d), .. }], Some(None))
                if case.values.len() == 1 && case.values[0].0 == 0 =>
            {
                Some((Self::case_variant_name(case, 0), d))
            }
            _ => None,
        }
    }

    // ---- definitions ---------------------------------------------------

    fn enum_def(&mut self, e: &EnumDef) {
        let name = rust_type_name(&e.name);
        let xdr = self.xdr().to_string();
        let copy_only = Derives {
            copy: true,
            default: false,
        };
        self.derives.insert(e.name.clone(), copy_only);
        self.line("#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]");
        self.line("#[repr(i32)]");
        self.line(&format!("pub enum {name} {{"));
        for (vname, value) in &e.variants {
            self.line(&format!("    {} = {},", rust_type_name(vname), value));
        }
        self.line("}");
        self.line("");
        self.line(&format!("impl {name} {{"));
        self.line("    /// Parse a raw discriminant.");
        self.line("    pub fn from_i32(v: i32) -> Option<Self> {");
        self.line("        match v {");
        for (vname, value) in &e.variants {
            self.line(&format!(
                "            {} => Some({}::{}),",
                value,
                name,
                rust_type_name(vname)
            ));
        }
        self.line("            _ => None,");
        self.line("        }");
        self.line("    }");
        self.line("}");
        self.line("");
        self.line(&format!("impl {xdr}::Xdr for {name} {{"));
        self.line(&format!(
            "    fn encode<S: {xdr}::XdrSink>(&self, enc: &mut {xdr}::XdrEncoder<S>) {{ enc.put_i32(*self as i32); }}"
        ));
        self.line(&format!(
            "    fn decode(dec: &mut {xdr}::XdrDecoder<'_>) -> {xdr}::XdrResult<Self> {{"
        ));
        self.line("        let v = dec.get_i32()?;");
        self.line(&format!(
            "        Self::from_i32(v).ok_or({xdr}::XdrError::InvalidEnum {{ type_name: \"{name}\", value: v }})"
        ));
        self.line("    }");
        self.line("}");
        self.line("");
    }

    fn struct_def(&mut self, s: &StructDef) {
        if let Some(item) = s.list_item() {
            return self.list_def(&s.name, item);
        }
        let name = rust_type_name(&s.name);
        let xdr = self.xdr().to_string();
        let derives = s.fields.iter().fold(Derives::ALL, |acc, f| {
            let d = self.decl_derives(f);
            Derives {
                copy: acc.copy && d.copy,
                default: acc.default && d.default,
            }
        });
        self.derive_line(&s.name, derives);
        self.line(&format!("pub struct {name} {{"));
        for f in &s.fields {
            self.line(&format!(
                "    pub {}: {},",
                rust_value_name(&f.name),
                self.decl_type(f)
            ));
        }
        self.line("}");
        self.line("");
        self.line(&format!("impl {xdr}::Xdr for {name} {{"));
        self.line(&format!(
            "    fn encode<S: {xdr}::XdrSink>(&self, enc: &mut {xdr}::XdrEncoder<S>) {{"
        ));
        for (_, value) in s.tags() {
            self.line(&format!("        enc.put_u32({value:#x});"));
        }
        for f in &s.fields {
            let stmt = self.encode_stmt(f, &format!("self.{}", rust_value_name(&f.name)));
            self.line(&format!("        {stmt}"));
        }
        self.line("    }");
        self.line(&format!(
            "    fn decode(dec: &mut {xdr}::XdrDecoder<'_>) -> {xdr}::XdrResult<Self> {{"
        ));
        for (word, value) in s.tags() {
            self.line(&format!(
                "        match dec.get_u32()? {{ {value:#x} => {{}} found => return Err({xdr}::XdrError::WrongTag {{ \
                 type_name: \"{}\", word: \"{word}\", found }}) }}",
                s.name
            ));
        }
        self.line("        Ok(Self {");
        for f in &s.fields {
            self.line(&format!(
                "            {}: {},",
                rust_value_name(&f.name),
                self.decode_expr(f)
            ));
        }
        self.line("        })");
        self.line("    }");
        self.line("}");
        self.line("");
    }

    /// An optional-data list node (see [`StructDef::list_item`]) as the
    /// list it heads: a newtype over the items, each encoded as `TRUE` and
    /// the item, the list closed by `FALSE` — the wire form of a chain of
    /// `node *`s, written and read by one loop each.
    fn list_def(&mut self, node: &str, item: &Declaration) {
        let name = rust_type_name(node);
        let xdr = self.xdr().to_string();
        self.line(&format!(
            "/// The optional-data list `{node} *` (RFC 4506 §4.19), its items in order."
        ));
        let empty_is_default = Derives {
            copy: false,
            default: true,
        };
        self.derive_line(node, empty_is_default);
        self.line(&format!(
            "pub struct {name}(pub Vec<{}>);",
            self.decl_type(item)
        ));
        self.line("");
        self.line(&format!("impl {xdr}::Xdr for {name} {{"));
        self.line(&format!(
            "    fn encode<S: {xdr}::XdrSink>(&self, enc: &mut {xdr}::XdrEncoder<S>) {{"
        ));
        self.line("        for item in &self.0 {");
        self.line("            enc.put_bool(true);");
        let stmt = self
            .encode_stmt(item, "(*item)")
            .replace("&(*item)", "item");
        self.line(&format!("            {stmt}"));
        self.line("        }");
        self.line("        enc.put_bool(false);");
        self.line("    }");
        self.line(&format!(
            "    fn decode(dec: &mut {xdr}::XdrDecoder<'_>) -> {xdr}::XdrResult<Self> {{"
        ));
        self.line("        let mut items = Vec::new();");
        self.line("        while dec.get_bool()? {");
        self.line(&format!(
            "            items.push({});",
            self.decode_expr(item)
        ));
        self.line("        }");
        self.line("        Ok(Self(items))");
        self.line("    }");
        self.line("}");
        self.line("");
    }

    /// Variant name for a union case value.
    fn case_variant_name(case: &UnionCase, value_idx: usize) -> String {
        let (value, spelling) = &case.values[value_idx];
        if case.values.len() == 1 {
            if let Some(d) = &case.decl {
                return rust_type_name(&d.name);
            }
        }
        if spelling.parse::<i64>().is_ok() {
            if *value < 0 {
                format!("CaseNeg{}", -value)
            } else {
                format!("Case{value}")
            }
        } else {
            rust_type_name(spelling)
        }
    }

    fn union_def(&mut self, u: &UnionDef) {
        let name = rust_type_name(&u.name);
        let xdr = self.xdr().to_string();
        let disc_is_enum =
            matches!(&u.discriminant.ty, TypeSpec::Named(n) if self.enums.contains(n));
        let disc_type = self.base_type(&u.discriminant.ty);

        // Collect (variant name, discriminant literal, payload decl) rows.
        struct Arm {
            variant: String,
            /// Rust expression for the discriminant value when encoding.
            disc_expr: String,
            /// Match pattern for the discriminant when decoding.
            disc_pat: String,
            decl: Option<Declaration>,
        }
        let mut arms: Vec<Arm> = Vec::new();
        for case in &u.cases {
            for i in 0..case.values.len() {
                let variant = Self::case_variant_name(case, i);
                let (value, spelling) = &case.values[i];
                let (disc_expr, disc_pat) = if disc_is_enum {
                    let e = format!("{}::{}", disc_type, rust_type_name(spelling));
                    (e.clone(), e)
                } else {
                    (format!("{value}"), format!("{value}"))
                };
                arms.push(Arm {
                    variant,
                    disc_expr,
                    disc_pat,
                    decl: case.decl.clone(),
                });
            }
        }
        // Detect variant-name collisions (codegen-time invariant).
        {
            let mut seen = std::collections::HashSet::new();
            for a in &arms {
                assert!(
                    seen.insert(a.variant.clone()),
                    "variant name collision `{}` in union `{}`; rename fields in the RPCL spec",
                    a.variant,
                    u.name
                );
            }
        }

        self.line("#[derive(Debug, Clone, PartialEq)]");
        self.line(&format!("pub enum {name} {{"));
        for a in &arms {
            match &a.decl {
                Some(d) => self.line(&format!("    {}({}),", a.variant, self.decl_type(d))),
                None => self.line(&format!("    {},", a.variant)),
            }
        }
        if let Some(default_decl) = &u.default {
            match default_decl {
                Some(d) => self.line(&format!(
                    "    /// Any discriminant not covered by a case arm.\n    Default({disc_type}, {}),",
                    self.decl_type(d)
                )),
                None => self.line(&format!(
                    "    /// Any discriminant not covered by a case arm.\n    Default({disc_type}),"
                )),
            }
        }
        self.line("}");
        self.line("");

        // encode
        self.line(&format!("impl {xdr}::Xdr for {name} {{"));
        self.line(&format!(
            "    fn encode<S: {xdr}::XdrSink>(&self, enc: &mut {xdr}::XdrEncoder<S>) {{"
        ));
        self.line("        match self {");
        // Writes the discriminant: an enum by reference (`by_ref`), an
        // integer by value (`by_val`).
        let int_ty = match u.discriminant.ty {
            TypeSpec::UInt => "u32",
            _ => "i32",
        };
        let put_disc = |by_ref: &str, by_val: &str| match disc_is_enum {
            true => format!("{xdr}::Xdr::encode({by_ref}, enc);"),
            false => format!("enc.put_{int_ty}({by_val});"),
        };
        for a in &arms {
            let e = &a.disc_expr;
            let put_disc = put_disc(&format!("&{e}"), &format!("{e}{int_ty}"));
            match &a.decl {
                Some(d) => {
                    let enc_stmt = self.encode_stmt(d, "(*v0)");
                    // encode_stmt takes a place expr; payload binding is `v0`.
                    let enc_stmt = enc_stmt.replace("&(*v0)", "v0");
                    self.line(&format!(
                        "            {name}::{}(v0) => {{ {put_disc} {enc_stmt} }}",
                        a.variant
                    ));
                }
                None => self.line(&format!(
                    "            {name}::{} => {{ {put_disc} }}",
                    a.variant
                )),
            }
        }
        if let Some(default_decl) = &u.default {
            let put_disc = put_disc("d", "*d");
            match default_decl {
                Some(d) => {
                    let enc_stmt = self.encode_stmt(d, "(*v0)").replace("&(*v0)", "v0");
                    self.line(&format!(
                        "            {name}::Default(d, v0) => {{ {put_disc} {enc_stmt} }}"
                    ));
                }
                None => self.line(&format!(
                    "            {name}::Default(d) => {{ {put_disc} }}"
                )),
            }
        }
        self.line("        }");
        self.line("    }");

        // decode
        self.line(&format!(
            "    fn decode(dec: &mut {xdr}::XdrDecoder<'_>) -> {xdr}::XdrResult<Self> {{"
        ));
        self.line(&match disc_is_enum {
            true => format!("        let disc: {disc_type} = {xdr}::Xdr::decode(dec)?;"),
            false => format!("        let disc = dec.get_{int_ty}()?;"),
        });
        self.line("        match disc {");
        for a in &arms {
            match &a.decl {
                Some(d) => {
                    let decode = self.decode_expr(d);
                    self.line(&format!(
                        "            {} => Ok({name}::{}({decode})),",
                        a.disc_pat, a.variant
                    ));
                }
                None => self.line(&format!(
                    "            {} => Ok({name}::{}),",
                    a.disc_pat, a.variant
                )),
            }
        }
        match &u.default {
            Some(Some(d)) => {
                let decode = self.decode_expr(d);
                self.line(&format!(
                    "            other => Ok({name}::Default(other, {decode})),"
                ));
            }
            Some(None) => {
                self.line(&format!("            other => Ok({name}::Default(other)),"));
            }
            // Without a default arm (even an enum's variants may not all be
            // covered), any other discriminant is refused.
            None => self.line(&format!(
                "            other => Err({xdr}::XdrError::InvalidUnionArm {{ type_name: \"{name}\", discriminant: other as i32 }}),"
            )),
        }
        self.line("        }");
        self.line("    }");
        self.line("}");
        self.line("");
        if let Some((variant, d)) = Self::value_arm(u) {
            self.line(&format!(
                "impl {name} {{\n    /// The value, or the error discriminant as the code.\n    \
                 pub fn into_result(self) -> Result<{}, i32> {{\n        match self {{ \
                 Self::{variant}(v) => Ok(v), Self::Default(err) => Err(err) }}\n    }}\n}}\n",
                self.decl_type(d)
            ));
        }
        if self.opts.server {
            self.reply_sink_def(u);
        }
    }

    /// For a union of the [`Self::bulk_union_arm`] shape, emit the by-value
    /// reply sink service methods receive in place of returning the union:
    /// one consuming call per arm, each writing exactly the bytes the
    /// union's `Xdr::encode` would, the payload straight from the caller's
    /// borrow. Both return the token the method must return, and nothing
    /// else makes one, so a body replies exactly once.
    fn reply_sink_def(&mut self, u: &UnionDef) {
        let Some((arm, sink, token)) = self.reply_sink(&TypeSpec::Named(u.name.clone())) else {
            return;
        };
        let xdr = self.xdr().to_string();
        let name = rust_type_name(&u.name);
        let payload = u
            .cases
            .iter()
            .find_map(|c| c.decl.as_ref())
            .map(|d| rust_value_name(&d.name))
            .expect("bulk union has a payload arm");
        self.line(&format!(
            "/// Server-side reply sink for a [`{name}`]: writes one arm straight into the"
        ));
        self.line("/// reply encoder, the payload borrowed from wherever it lives. Either call");
        self.line(&format!(
            "/// consumes the sink, and only they make the [`{token}`] a service method"
        ));
        self.line("/// returns: a body cannot reply twice, or return `Ok` without replying.");
        self.line(&format!(
            "pub struct {sink}<'a>(pub &'a mut {xdr}::XdrEncoder);"
        ));
        self.line("");
        self.line(&format!("/// Proof that a [`{sink}`] wrote its arm."));
        self.line("#[derive(Debug)]");
        self.line(&format!("pub struct {token}(());"));
        self.line("");
        self.line(&format!("impl {sink}<'_> {{"));
        self.line(&format!(
            "    /// Write the `{payload}` arm: discriminant, length, the bytes, pad."
        ));
        self.line(&format!(
            "    pub fn {payload}(self, v0: &[u8]) -> {token} {{ self.0.put_i32({arm}i32); self.0.put_opaque(v0); {token}(()) }}"
        ));
        self.line("");
        self.line("    /// Write the void arm of discriminant `d`.");
        self.line(&format!(
            "    pub fn default(self, d: i32) -> {token} {{ self.0.put_i32(d); {token}(()) }}"
        ));
        self.line("}");
        self.line("");
    }

    fn typedef_def(&mut self, t: &TypedefDef) {
        let d = &t.decl;
        let name = rust_type_name(&d.name);
        match (&d.ty, &d.kind) {
            // Fixed non-opaque arrays need a newtype to remember N.
            (ty, DeclKind::FixedArray(n)) if !matches!(ty, TypeSpec::Opaque) => {
                let base = self.base_type(ty);
                let xdr = self.xdr().to_string();
                self.derive_line(&d.name, Derives::default());
                self.line(&format!(
                    "/// Fixed-length array typedef (`{}[{n}]`).",
                    d.name
                ));
                self.line(&format!("pub struct {name}(pub Vec<{base}>);"));
                self.line("");
                self.line(&format!("impl {xdr}::Xdr for {name} {{"));
                self.line(&format!(
                    "    fn encode<S: {xdr}::XdrSink>(&self, enc: &mut {xdr}::XdrEncoder<S>) {{ assert_eq!(self.0.len(), {n}); enc.put_array_fixed(&self.0); }}"
                ));
                self.line(&format!(
                    "    fn decode(dec: &mut {xdr}::XdrDecoder<'_>) -> {xdr}::XdrResult<Self> {{ Ok(Self(dec.get_array_fixed::<{base}>({n})?)) }}"
                ));
                self.line("}");
            }
            _ => {
                self.derives.insert(d.name.clone(), self.decl_derives(d));
                let alias = {
                    // Bounds on typedef aliases are documented, not enforced.
                    let mut tmp = d.clone();
                    if let DeclKind::VarArray(Some(_)) = tmp.kind {
                        tmp.kind = DeclKind::VarArray(None);
                    }
                    self.decl_type(&tmp)
                };
                self.line(&format!("pub type {name} = {alias};"));
            }
        }
        self.line("");
    }

    fn program_def(&mut self, p: &ProgramDef) {
        let prog_const = rust_const_name(&p.name);
        self.line(&format!(
            "/// Program number of `{}`.\npub const {prog_const}: u32 = {};",
            p.name, p.number
        ));
        self.line("");
        for v in &p.versions {
            self.version_items(p, v);
        }
    }

    fn version_items(&mut self, p: &ProgramDef, v: &VersionDef) {
        let vers_const = rust_const_name(&v.name);
        let mod_name = rust_value_name(&v.name)
            .trim_start_matches("r#")
            .to_string();
        self.line(&format!(
            "/// Version number of `{}`.\npub const {vers_const}: u32 = {};",
            v.name, v.number
        ));
        self.line("");
        self.line(&format!(
            "/// Procedure numbers of `{}` version `{}`.",
            p.name, v.name
        ));
        self.line(&format!("pub mod {mod_name} {{"));
        for proc in &v.procedures {
            self.line(&format!(
                "    pub const {}: u32 = {};",
                rust_const_name(&proc.name),
                proc.number
            ));
        }
        self.attr_table(
            v,
            "idempotent",
            "interface: retransmitting it cannot change observable state,\n\
             so clients may retry it without at-most-once protection.",
            |proc| proc.idempotent,
        );
        self.attr_table(
            v,
            "batchable",
            "interface: an async status-only op that clients may record\n\
             into a command batch instead of sending immediately.",
            |proc| proc.batchable,
        );
        self.attr_table(
            v,
            "inline",
            "interface: it answers from host-visible state and never waits\n\
             (no scheduler turn, no device time), so a server may execute\n\
             it on its poll thread instead of parking it on a worker.",
            |proc| proc.inline,
        );
        self.attr_table(
            v,
            "admin",
            "interface: an operator, checkpoint or migration control call\n\
             that a server's admission control must never shed.",
            |proc| proc.admin,
        );
        if v.procedures.iter().any(|proc| proc.cost_ns.is_some()) {
            self.cost_table(v);
        }
        let api = v.procedures.iter().any(|proc| proc.api.is_some());
        if api {
            self.line("\n    /// A plain `int` result as a status: `Ok(())` for 0, else the code.");
            self.line(
                "    pub fn status(code: i32) -> Result<(), i32> {\n        \
                       if code == 0 { Ok(()) } else { Err(code) }\n    }",
            );
        }
        self.line("}");
        self.line("");
        if self.opts.client {
            self.client_stub(p, v);
        }
        if self.opts.server {
            self.server_skeleton(p, v);
        }
        if api && self.opts.client && self.opts.server {
            self.api_macro(v);
        }
    }

    /// Emit `{vers}_api!`, the typed API of the procedures declaring
    /// `api(method, "name")`: a macro for the client's `impl` block that
    /// expands to one `pub fn method` per procedure, its result type
    /// `$result<T>`. Each body hands the call, under `name`, to a hook of
    /// that impl: `admin` to `manage`, `batchable` to `issue(name, true,
    /// {Vers}BatchOp::..)`, any other to `call`. The hooks run a closure
    /// over the stub that turns its reply into `Result<T, i32>`.
    fn api_macro(&mut self, v: &VersionDef) {
        let mod_name = rust_value_name(&v.name);
        let named = |ty: &TypeSpec, rust: String| match ty {
            TypeSpec::Named(_) => format!("$crate::{rust}"),
            _ => rust,
        };
        self.line(&format!(
            "/// The typed client API of `{}`, for an `impl` block with the hooks\n\
             /// `call`, `manage` and `issue`; `$result` is the methods' result type.\n\
             #[macro_export]\nmacro_rules! {mod_name}_api {{ ($result:ident) => {{",
            v.name
        ));
        for proc in &v.procedures {
            let Some(api) = &proc.api else { continue };
            let union =
                (self.unions.iter()).find(|u| proc.result == TypeSpec::Named(u.name.clone()));
            let (ok, convert) = match (union.and_then(Self::value_arm), &proc.result) {
                (Some((_, d)), ty) => (
                    named(&d.ty, self.decl_type(d)),
                    named(ty, format!("{}::into_result", self.base_type(ty))),
                ),
                (None, TypeSpec::Int) => ("()".into(), format!("$crate::{mod_name}::status")),
                (None, TypeSpec::Void) => ("()".into(), "Ok".into()),
                (None, ty) => (named(ty, self.proc_type(ty)), "Ok".into()),
            };
            // Scalars by value, as the batch op holds them; the rest borrowed.
            let (mut params, mut stub_args) = (String::new(), Vec::new());
            for (i, ty) in proc.args.iter().enumerate() {
                let param = match self.service_param_type(ty) {
                    p if p.starts_with('&') || !matches!(ty, TypeSpec::Named(_)) => p,
                    p => format!("&$crate::{p}"),
                };
                let borrow = if param.starts_with('&') { "" } else { "&" };
                stub_args.push(format!("{borrow}arg{i}"));
                params += &format!(", arg{i}: {param}");
            }
            let op_args = (0..proc.args.len()).map(|i| format!("arg{i}"));
            let name = &api.name;
            let body = match (proc.batchable, proc.admin) {
                (true, _) => format!(
                    "self.issue({name:?}, true, $crate::{}BatchOp::{}({}))",
                    rust_type_name(&v.name),
                    rust_type_name(&proc.name),
                    op_args.collect::<Vec<_>>().join(", ")
                ),
                (false, admin) => format!(
                    "self.{}({name:?}, |stub| stub.{}({}).map({convert}))",
                    if admin { "manage" } else { "call" },
                    rust_value_name(&proc.name),
                    stub_args.join(", ")
                ),
            };
            self.line(&format!(
                "    /// `{name}` (`{}` = {}).",
                proc.name, proc.number
            ));
            if proc.args.len() >= 7 {
                self.line("    #[allow(clippy::too_many_arguments)]");
            }
            self.line(&format!(
                "    pub fn {}(&mut self{params}) -> $result<{ok}> {{ {body} }}",
                api.method
            ));
        }
        self.line("} }\n");
    }

    /// Emit `is_{attr}(proc)` into the procedure-number module: true for
    /// the procedures of `v` that carry the attribute. `doc` continues the
    /// sentence "True if the procedure was declared `{attr}` in the".
    fn attr_table(
        &mut self,
        v: &VersionDef,
        attr: &str,
        doc: &str,
        has: fn(&ProcedureDef) -> bool,
    ) {
        let tagged: Vec<String> = v
            .procedures
            .iter()
            .filter(|proc| has(proc))
            .map(|proc| rust_const_name(&proc.name))
            .collect();
        self.line("");
        self.line(&format!(
            "    /// True if the procedure was declared `{attr}` in the"
        ));
        for l in doc.lines() {
            self.line(&format!("    /// {l}"));
        }
        self.line(&format!("    pub fn is_{attr}(proc: u32) -> bool {{"));
        if tagged.is_empty() {
            self.line("        let _ = proc;");
            self.line("        false");
        } else {
            self.line(&format!("        matches!(proc, {})", tagged.join(" | ")));
        }
        self.line("    }");
    }

    /// Emit `host_cost_ns(proc)` into the procedure-number module: the
    /// `cost(ns)` each procedure of `v` declares, 0 where none is declared.
    fn cost_table(&mut self, v: &VersionDef) {
        self.line("");
        self.line("    /// Host-side nanoseconds the procedure was declared to cost");
        self.line("    /// (`cost(ns)` in the interface), charged beside a server's");
        self.line("    /// dispatch; 0 for a procedure declaring none.");
        self.line("    pub fn host_cost_ns(proc: u32) -> u64 {");
        self.line("        match proc {");
        for proc in &v.procedures {
            if let Some(ns) = proc.cost_ns {
                self.line(&format!(
                    "            {} => {ns},",
                    rust_const_name(&proc.name)
                ));
            }
        }
        self.line("            _ => 0,");
        self.line("        }");
        self.line("    }");
    }

    /// Rust type of a procedure result (always a full owned type, no
    /// declaration decorations are allowed in proc signatures).
    fn proc_type(&self, ty: &TypeSpec) -> String {
        match ty {
            TypeSpec::StringType => "String".into(),
            TypeSpec::Opaque => "Vec<u8>".into(),
            other => self.base_type(other),
        }
    }

    /// Is this procedure argument type a variable-length opaque payload
    /// (directly or via a `typedef opaque foo<>` alias)?
    fn is_bulk_opaque(&self, ty: &TypeSpec) -> bool {
        match ty {
            TypeSpec::Opaque => true,
            TypeSpec::Named(n) => self.opaque_aliases.contains(n),
            _ => false,
        }
    }

    /// Rust type of a procedure argument as passed to client stubs. Bulk
    /// data is borrowed (`&[u8]`, `&str`) so payloads flow from the caller's
    /// buffer to the transport without an ownership copy.
    fn proc_param_type(&self, ty: &TypeSpec) -> String {
        match self.service_param_type(ty) {
            borrowed if borrowed.starts_with('&') => borrowed,
            owned => format!("&{owned}"),
        }
    }

    /// Rust type of a procedure argument as received by service traits:
    /// scalars by value, bulk data borrowed from the request record.
    fn service_param_type(&self, ty: &TypeSpec) -> String {
        if self.is_bulk_opaque(ty) {
            return "&[u8]".into();
        }
        match ty {
            TypeSpec::StringType => "&str".into(),
            other => self.base_type(other),
        }
    }

    /// Emit the opening of one client-side stub up to and including its
    /// argument-encoding closure body: doc line, signature, the call into
    /// the RPC client (or batch builder) and one encode statement per
    /// argument. The caller closes the closure and emits what follows.
    /// Every stub kind starts here, so the parameter list and the encode
    /// statements exist once.
    fn stub_open(&mut self, mod_name: &str, proc: &ProcedureDef, kind: Stub) {
        let xdr = self.xdr().to_string();
        let rpc = self.rpc().to_string();
        let method = rust_value_name(&proc.name);
        let (doc, suffix, receiver, ret) = match kind {
            Stub::Owned => (
                "Call remote procedure",
                "",
                "&mut self".to_string(),
                Some(self.proc_type(&proc.result)),
            ),
            Stub::Into => (
                "Into-the-caller's-buffer form of",
                "_into",
                "&mut self".to_string(),
                Some("i32".to_string()),
            ),
            Stub::Record => (
                "Record into `batch` (for a coalesced flush) a call of",
                "_record",
                format!("batch: &mut {rpc}::BatchBuilder"),
                None,
            ),
        };
        let params: Vec<String> = std::iter::once(receiver)
            .chain(
                proc.args
                    .iter()
                    .enumerate()
                    .map(|(i, ty)| format!("arg{i}: {}", self.proc_param_type(ty))),
            )
            .chain(matches!(kind, Stub::Into).then(|| "dst: &mut [u8]".to_string()))
            .collect();
        let ret = ret
            .map(|ty| format!(" -> {rpc}::RpcResult<{ty}>"))
            .unwrap_or_default();
        // Procedures carrying bulk opaque arguments use the scatter-gather
        // call path, which defers them: the payload is never copied into
        // the request buffer. A batch copies (it outlives the caller's data).
        let has_bulk = proc.args.iter().any(|ty| self.is_bulk_opaque(ty));
        let (callee, put_bulk) = match (kind, has_bulk) {
            (Stub::Record, _) => ("batch.record", "put_opaque"),
            (Stub::Into, _) => ("let reply = self.rpc.call_raw_into", "put_opaque_deferred"),
            (_, true) => (
                "let reply = self.rpc.call_raw_sg_tagged",
                "put_opaque_deferred",
            ),
            (_, false) => ("let reply = self.rpc.call_raw_tagged", "put_opaque"),
        };
        self.line("");
        self.line(&format!(
            "    /// {doc} `{}` (= {}).",
            proc.name, proc.number
        ));
        if proc.args.len() >= 7 {
            // Wide CUDA/cuBLAS procedures mirror the .x signature 1:1.
            self.line("    #[allow(clippy::too_many_arguments)]");
        }
        self.line(&format!(
            "    pub fn {method}{suffix}({}){ret} {{",
            params.join(", ")
        ));
        // The idempotency tag gates automatic retransmission in the client
        // retry policy.
        self.line(&format!(
            "        {callee}({mod_name}::{}, {}, |enc| {{",
            rust_const_name(&proc.name),
            proc.idempotent
        ));
        for (i, ty) in proc.args.iter().enumerate() {
            if self.is_bulk_opaque(ty) {
                self.line(&format!("            enc.{put_bulk}(arg{i});"));
            } else if matches!(ty, TypeSpec::StringType) {
                self.line(&format!("            enc.put_string(arg{i});"));
            } else {
                self.line(&format!("            {xdr}::Xdr::encode(arg{i}, enc);"));
            }
        }
        if proc.args.is_empty() {
            self.line("            let _ = enc;");
        }
    }

    /// Emit one typed client stub per version: `{Vers}Client<T, B>`, generic
    /// over the transport and buffer policy of the `RpcClient` it wraps and
    /// defaulted to the boxed-transport, pooled-buffer client. Each
    /// procedure body is emitted once and serves every instantiation.
    fn client_stub(&mut self, p: &ProgramDef, v: &VersionDef) {
        let client_name = format!("{}Client", rust_type_name(&v.name));
        let rpc = self.rpc().to_string();
        let xdr = self.xdr().to_string();
        let prog_const = rust_const_name(&p.name);
        let vers_const = rust_const_name(&v.name);
        let mod_name = rust_value_name(&v.name);

        self.line(&format!(
            "/// Generated client stub for `{}` version `{}`. `T` and `B` are the",
            p.name, v.name
        ));
        self.line("/// transport type and buffer policy of the underlying RPC client.");
        self.line(&format!(
            "pub struct {client_name}<T = Box<dyn {rpc}::Transport>, B = Vec<u8>> {{"
        ));
        self.line("    /// Underlying generic RPC client.");
        self.line(&format!("    pub rpc: {rpc}::RpcClient<T, B>,"));
        self.line("}");
        self.line("");
        self.line(&format!(
            "impl<T: {rpc}::Transport, B: {rpc}::RecordBuf> {client_name}<T, B> {{"
        ));
        self.line("    /// Bind the stub to a transport (program/version preset); the");
        self.line("    /// transport type and buffer policy come from the requested type.");
        self.line("    pub fn bind(transport: T) -> Self {");
        self.line(&format!(
            "        Self {{ rpc: {rpc}::RpcClient::bind(transport, {prog_const}, {vers_const}) }}"
        ));
        self.line("    }");
        self.line("");
        self.line("    /// Wrap an existing RPC client.");
        self.line(&format!(
            "    pub fn from_rpc(rpc: {rpc}::RpcClient<T, B>) -> Self {{ Self {{ rpc }} }}"
        ));
        for proc in &v.procedures {
            self.stub_open(&mod_name, proc, Stub::Owned);
            self.line("        })?;");
            if proc.result.is_void() {
                self.line("        if !reply.is_empty() {");
                self.line(&format!(
                    "            return Err({rpc}::RpcError::Xdr({xdr}::XdrError::TrailingBytes {{ remaining: reply.len() }}));"
                ));
                self.line("        }");
                self.line("        Ok(())");
            } else {
                self.line(&format!(
                    "        let mut dec = {xdr}::XdrDecoder::new(&reply);"
                ));
                self.line(&format!(
                    "        let result = {xdr}::Xdr::decode(&mut dec)?;"
                ));
                self.line("        dec.finish()?;");
                self.line("        Ok(result)");
            }
            self.line("    }");
            if let Some(arm) = self.bulk_union_arm(&proc.result) {
                // The bulk payload is read off the transport into `dst`
                // when it is exactly `dst.len()` bytes, so the call
                // allocates nothing; a reply the client read whole is
                // checked and copied the same way.
                self.stub_open(&mod_name, proc, Stub::Into);
                self.line(&format!("        }}, ({arm}, &mut *dst))?;"));
                self.line(&format!(
                    "        let mut dec = {xdr}::XdrDecoder::new(&reply);"
                ));
                self.line("        let err = dec.get_i32()?;");
                self.line(&format!("        if err == {arm} && reply.landed() {{"));
                self.line("            dec.get_u32()?;");
                self.line(&format!("        }} else if err == {arm} {{"));
                self.line("            let data = dec.get_opaque_ref()?;");
                self.line("            if data.len() != dst.len() {");
                self.line(&format!(
                    "                let why = format!(\"{} reply carried {{}} bytes, wanted {{}}\", data.len(), dst.len());",
                    proc.name
                ));
                self.line(&format!(
                    "                return Err({rpc}::RpcError::Xdr({xdr}::XdrError::Custom(why)));"
                ));
                self.line("            }");
                self.line("            dst.copy_from_slice(data);");
                self.line("        }");
                self.line("        dec.finish()?;");
                self.line("        Ok(err)");
                self.line("    }");
            }
        }
        self.line("}");
        self.line("");
        // Items that name no type parameter live on the defaulted type, so
        // `{Vers}Client::new(..)` and `{Vers}Client::xyz_record(..)` infer.
        self.line(&format!("impl {client_name} {{"));
        self.line("    /// Bind the default stub (boxed transport, pooled buffers).");
        self.line(&format!(
            "    pub fn new(transport: Box<dyn {rpc}::Transport>) -> Self {{ Self::bind(transport) }}"
        ));
        for proc in v.procedures.iter().filter(|proc| proc.batchable) {
            // Instead of a round trip, append the op (proc number + its
            // normal argument stream) to a client-side command batch.
            self.stub_open(&mod_name, proc, Stub::Record);
            self.line("        });");
            self.line("    }");
        }
        self.line("}");
        self.line("");
    }

    fn server_skeleton(&mut self, p: &ProgramDef, v: &VersionDef) {
        let trait_name = format!("{}Service", rust_type_name(&v.name));
        let dispatch_name = format!("{}Dispatch", rust_type_name(&v.name));
        let rpc = self.rpc().to_string();
        let xdr = self.xdr().to_string();
        let mod_name = rust_value_name(&v.name);

        self.line(&format!(
            "/// Service trait for `{}` version `{}` (server side).",
            p.name, v.name
        ));
        self.line(&format!("pub trait {trait_name}: Send + Sync {{"));
        for proc in &v.procedures {
            let method = rust_value_name(&proc.name);
            let sink = self.reply_sink(&proc.result);
            let params: Vec<String> = proc
                .args
                .iter()
                .enumerate()
                .map(|(i, ty)| format!("arg{i}: {}", self.service_param_type(ty)))
                .chain(sink.iter().map(|(_, sink, _)| format!("reply: {sink}<'_>")))
                .collect();
            let ret = match sink {
                Some((_, _, token)) => token,
                None if proc.result.is_void() => "()".to_string(),
                None => self.proc_type(&proc.result),
            };
            self.line(&format!(
                "    /// Implement remote procedure `{}` (= {}).",
                proc.name, proc.number
            ));
            if params.len() >= 7 {
                self.line("    #[allow(clippy::too_many_arguments)]");
            }
            self.line(&format!(
                "    fn {method}(&self{}{}) -> Result<{ret}, {rpc}::AcceptStat>;",
                if params.is_empty() { "" } else { ", " },
                params.join(", ")
            ));
        }
        self.line("}");
        self.line("");
        self.line(&format!(
            "/// Adapter implementing [`{rpc}::Dispatch`] over a [`{trait_name}`]."
        ));
        self.line(&format!("pub struct {dispatch_name}<S>(pub S);"));
        self.line("");
        self.line(&format!(
            "impl<S: {trait_name}> {rpc}::Dispatch for {dispatch_name}<S> {{"
        ));
        self.line(&format!(
            "    fn dispatch(&self, proc: u32, args: &mut {xdr}::XdrDecoder<'_>, reply: &mut {xdr}::XdrEncoder) -> Result<(), {rpc}::AcceptStat> {{"
        ));
        self.line("        match proc {");
        for proc in &v.procedures {
            let method = rust_value_name(&proc.name);
            let proc_const = rust_const_name(&proc.name);
            self.line(&format!("            {mod_name}::{proc_const} => {{"));
            for (i, ty) in proc.args.iter().enumerate() {
                self.line(&format!(
                    "                let arg{i} = {}.map_err(|_| {rpc}::AcceptStat::GarbageArgs)?;",
                    self.service_arg_decode(ty, "args")
                ));
            }
            self.line(&format!(
                "                args.finish().map_err(|_| {rpc}::AcceptStat::GarbageArgs)?;"
            ));
            let mut arg_list: Vec<String> =
                (0..proc.args.len()).map(|i| format!("arg{i}")).collect();
            if let Some((_, sink, token)) = self.reply_sink(&proc.result) {
                // The method writes its own reply, payload borrowed.
                arg_list.push(format!("{sink}(reply)"));
                self.line(&format!(
                    "                let _: {token} = self.0.{method}({})?;",
                    arg_list.join(", ")
                ));
            } else if proc.result.is_void() {
                self.line(&format!(
                    "                self.0.{method}({})?;",
                    arg_list.join(", ")
                ));
                self.line("                let _ = reply;");
            } else {
                self.line(&format!(
                    "                let result = self.0.{method}({})?;",
                    arg_list.join(", ")
                ));
                self.line(&format!(
                    "                {xdr}::Xdr::encode(&result, reply);"
                ));
            }
            self.line("                Ok(())");
            self.line("            }");
        }
        self.line(&format!(
            "            _ => Err({rpc}::AcceptStat::ProcUnavail),"
        ));
        self.line("        }");
        self.line("    }");
        self.line("}");
        self.line("");
        if v.procedures.iter().any(|proc| proc.batchable) {
            self.batch_op(v);
        }
    }

    /// Expression decoding one procedure argument from the decoder named
    /// `dec`, as an `XdrResult` of [`Self::service_param_type`]: bulk data
    /// and strings stay borrowed from the request record, so the service
    /// sees the wire bytes without a copy.
    fn service_arg_decode(&self, ty: &TypeSpec, dec: &str) -> String {
        if self.is_bulk_opaque(ty) {
            format!("{dec}.get_opaque_ref()")
        } else if matches!(ty, TypeSpec::StringType) {
            format!("{dec}.get_str_ref()")
        } else {
            format!("{dec}.get::<{}>()", self.proc_type(ty))
        }
    }

    /// Emit `{Vers}BatchOp<'a>`: one tuple variant per `batchable`
    /// procedure holding its arguments as the service trait receives them,
    /// and `decode`, which reads one sub-op of a command-batch body with the
    /// same argument decoding as the dispatch arms.
    fn batch_op(&mut self, v: &VersionDef) {
        let name = format!("{}BatchOp", rust_type_name(&v.name));
        let xdr = self.xdr().to_string();
        let mod_name = rust_value_name(&v.name);
        let batchable: Vec<&ProcedureDef> = v.procedures.iter().filter(|p| p.batchable).collect();
        // The enum names a lifetime only if some argument borrows.
        let borrows = |ty: &TypeSpec| self.service_param_type(ty).starts_with('&');
        let (lt, dec_lt) = if batchable.iter().any(|p| p.args.iter().any(borrows)) {
            ("<'a>", "'a")
        } else {
            ("", "'_")
        };
        self.line(&format!(
            "/// One sub-op of a `{}` command batch: a `batchable` procedure and its",
            v.name
        ));
        self.line("/// arguments, bulk data borrowed from the batch body.");
        self.line("#[derive(Debug, Clone, PartialEq)]");
        self.line(&format!("pub enum {name}{lt} {{"));
        for proc in &batchable {
            let fields: Vec<String> = proc
                .args
                .iter()
                .map(|ty| self.service_param_type(ty).replace('&', "&'a "))
                .collect();
            self.line(&format!(
                "    /// `{}` (= {}).\n    {}({}),",
                proc.name,
                proc.number,
                rust_type_name(&proc.name),
                fields.join(", ")
            ));
        }
        self.line("}");
        self.line("");
        self.line(&format!("impl{lt} {name}{lt} {{"));
        self.line("    /// Decode the argument stream of procedure `proc` from a batch body;");
        self.line("    /// `Ok(None)` if `proc` is not a `batchable` procedure.");
        self.line(&format!(
            "    pub fn decode(proc: u32, dec: &mut {xdr}::XdrDecoder<{dec_lt}>) -> {xdr}::XdrResult<Option<Self>> {{"
        ));
        self.line("        Ok(Some(match proc {");
        for proc in &batchable {
            let args: Vec<String> = proc
                .args
                .iter()
                .map(|ty| format!("{}?", self.service_arg_decode(ty, "dec")))
                .collect();
            self.line(&format!(
                "            {mod_name}::{} => Self::{}({}),",
                rust_const_name(&proc.name),
                rust_type_name(&proc.name),
                args.join(", ")
            ));
        }
        self.line("            _ => return Ok(None),");
        self.line("        }))");
        self.line("    }");
        self.line("");
        self.line("    /// The procedure this op is a call of.");
        self.line("    pub fn proc(&self) -> u32 {");
        self.line("        match self {");
        for proc in &batchable {
            self.line(&format!(
                "            Self::{}(..) => {mod_name}::{},",
                rust_type_name(&proc.name),
                rust_const_name(&proc.name)
            ));
        }
        self.line("        }");
        self.line("    }");
        if self.opts.client {
            self.batch_op_issue(v, &batchable);
        }
        self.line("}");
        self.line("");
    }

    /// With the client stubs in the same module a `{Vers}BatchOp` is also
    /// the client's unit of issue — one value, recorded or sent: emit
    /// `record` (append to a batch, as the procedure's `*_record` stub) and
    /// `send` (call the procedure on its own).
    fn batch_op_issue(&mut self, v: &VersionDef, batchable: &[&ProcedureDef]) {
        let rpc = self.rpc().to_string();
        let client = format!("{}Client", rust_type_name(&v.name));
        let methods = [
            (
                "Append this op to `batch`, as its procedure's `*_record` stub does.",
                format!("record(&self, batch: &mut {rpc}::BatchBuilder)"),
                format!("{client}::"),
                "_record(batch, ",
            ),
            (
                "Call this op's procedure on its own through `client`.",
                format!(
                    "send<T: {rpc}::Transport, B: {rpc}::RecordBuf>(&self, \
                     client: &mut {client}<T, B>) -> {rpc}::RpcResult<i32>"
                ),
                "client.".to_string(),
                "(",
            ),
        ];
        for (doc, signature, callee, open) in methods {
            self.line("");
            self.line(&format!("    /// {doc}"));
            self.line(&format!("    pub fn {signature} {{"));
            self.line("        match *self {");
            for proc in batchable {
                // The stubs take references; a field that is one binds by copy.
                let fields = proc.args.iter().enumerate().map(|(i, ty)| {
                    let by_ref = !self.service_param_type(ty).starts_with('&');
                    format!("{}a{i}", if by_ref { "ref " } else { "" })
                });
                let fields = fields.collect::<Vec<_>>().join(", ");
                self.line(&format!(
                    "            Self::{}({fields}) => {callee}{}{open}{}),",
                    rust_type_name(&proc.name),
                    rust_value_name(&proc.name),
                    fields.replace("ref ", ""),
                ));
            }
            self.line("        }");
            self.line("    }");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn gen(src: &str) -> String {
        generate(&parse(src).unwrap(), &Options::default())
    }

    #[test]
    fn const_generation() {
        let out = gen("const MAX_LEN = 512;");
        assert!(out.contains("pub const MAX_LEN: i64 = 512;"));
    }

    #[test]
    fn enum_generation() {
        let out = gen("enum color { RED = 1, GREEN = 2 };");
        assert!(out.contains("pub enum Color {"));
        assert!(out.contains("Red = 1,"));
        assert!(out.contains("fn from_i32"));
        assert!(out.contains("impl xdr::Xdr for Color"));
    }

    #[test]
    fn struct_generation_covers_decorations() {
        let out = gen(
            "struct s { int a; opaque b<>; opaque c[8]; string d<16>; double e<>; int f[3]; s *g; opaque h<32>; };",
        );
        assert!(out.contains("pub a: i32,"));
        assert!(out.contains("pub b: Vec<u8>,"));
        assert!(out.contains("pub c: [u8; 8],"));
        assert!(out.contains("pub d: String,"));
        assert!(out.contains("pub e: xdr::XdrVec<f64>,"));
        assert!(out.contains("pub f: Vec<i32>,"));
        assert!(out.contains("pub g: Option<Box<S>>,"));
        assert!(out.contains("dec.get_array_fixed::<i32>(3)?"));
        assert!(out.contains("dec.get_opaque_max(32)"));
        assert!(out.contains("LengthOutOfBounds { len: s.len(), max: 16 }"));
    }

    /// RFC 4506 §4.19 optional-data lists: a node is emitted as the list it
    /// heads — a `Vec` newtype whose codec is one loop each way — and no
    /// pointer in the spec becomes a box: encode, decode and drop stay
    /// flat however long the peer makes the list.
    #[test]
    fn list_nodes_are_vecs_with_iterative_codecs() {
        let out = gen(r#"struct mapping { unsigned int prog; unsigned int port; };
            struct maplist { mapping map; maplist *next; };
            typedef maplist *maplist_ptr;
            struct names { string item<16>; names *next; };
            struct holder { maplist *head; names *tags; hyper *opt; };
            program P { version V { maplist_ptr DUMP(void) = 1; } = 1; } = 9;"#);
        assert!(out.contains("pub struct Maplist(pub Vec<Mapping>);"));
        assert!(out.contains("pub struct Names(pub Vec<String>);"));
        assert!(out.contains("pub type MaplistPtr = Maplist;"));
        assert!(out.contains("pub head: Maplist,\n    pub tags: Names,\n    pub opt: Option<i64>,"));
        assert!(!out.contains("Option<Box<"));
        assert!(out.contains(
            "        for item in &self.0 {\n            enc.put_bool(true);\n            \
             xdr::Xdr::encode(item, enc);\n        }\n        enc.put_bool(false);"
        ));
        assert!(out.contains(
            "        let mut items = Vec::new();\n        while dec.get_bool()? {\n            \
             items.push(xdr::Xdr::decode(dec)?);\n        }\n        Ok(Self(items))"
        ));
        // The item keeps its declaration's checks.
        assert!(out.contains("LengthOutOfBounds { len: s.len(), max: 16 }"));
        assert!(out.contains("fn dump(&self) -> Result<MaplistPtr, oncrpc::AcceptStat>;"));
        assert!(out.contains("pub fn dump(&mut self) -> oncrpc::RpcResult<MaplistPtr> {"));
        assert!(out.contains(
            "#[derive(Debug, Clone, Default, PartialEq)]\npub struct Maplist(pub Vec<Mapping>);"
        ));
    }

    /// `Copy` and `Default` are derived exactly when every member has
    /// them: a struct of plain-old-data structs is itself `Copy`, enums
    /// have no default, and neither does an array of fixed length.
    #[test]
    fn derives_follow_the_members() {
        let out = gen(r#"enum kind { KA = 0 };
            struct load { unsigned hyper mem; double secs; };
            struct entry { unsigned int port; load l; hyper *opt; };
            struct tagged { kind k; int n; };
            struct listed { entry xs<>; int fixed[2]; };
            struct blob { opaque id[64]; string s<>; tagged *t; };"#);
        for (name, derives) in [
            ("Load", "Debug, Clone, Copy, Default, PartialEq"),
            ("Entry", "Debug, Clone, Copy, Default, PartialEq"),
            ("Tagged", "Debug, Clone, Copy, PartialEq"),
            ("Listed", "Debug, Clone, PartialEq"),
            ("Blob", "Debug, Clone, PartialEq"),
        ] {
            let line = format!("#[derive({derives})]\npub struct {name} {{");
            assert!(out.contains(&line), "{line}");
        }
    }

    #[test]
    fn union_generation_int_discriminant() {
        let out = gen(
            "union ptr_result switch (int err) { case 0: unsigned hyper ptr; default: void; };",
        );
        assert!(out.contains("pub enum PtrResult {"));
        assert!(out.contains("Ptr(u64),"));
        assert!(out.contains("Default(i32)"));
        assert!(out.contains("0 => Ok(PtrResult::Ptr("));
        assert!(out.contains("other => Ok(PtrResult::Default(other)),"));
    }

    #[test]
    fn union_generation_enum_discriminant() {
        let out = gen(
            "enum kind { KA = 0, KB = 1 };\n union v switch (kind k) { case KA: int a; case KB: void; };",
        );
        assert!(out.contains("Kind::Ka => Ok(V::A("));
        assert!(out.contains("V::Kb => { xdr::Xdr::encode(&Kind::Kb, enc); }"));
        assert!(out.contains("InvalidUnionArm"));
    }

    #[test]
    fn union_multi_case_values() {
        let out = gen("union u switch (int d) { case 1: case 2: int x; case 3: void; };");
        assert!(out.contains("Case1(i32),"));
        assert!(out.contains("Case2(i32),"));
        assert!(out.contains("Case3,"));
    }

    #[test]
    fn typedef_generation() {
        let out =
            gen("typedef opaque mem_data<>; typedef unsigned hyper ptr; typedef int triple[3];");
        assert!(out.contains("pub type MemData = Vec<u8>;"));
        assert!(out.contains("pub type Ptr = u64;"));
        assert!(out.contains("pub struct Triple(pub Vec<i32>);"));
    }

    #[test]
    fn program_generation() {
        let out = gen(r#"program DEMO {
                version DEMO_V1 {
                    void NULLPROC(void) = 0;
                    unsigned hyper ALLOC(unsigned hyper) = 1;
                    void FREE(unsigned hyper) = 2;
                } = 1;
            } = 99;"#);
        assert!(out.contains("pub const DEMO: u32 = 99;"));
        assert!(out.contains("pub const DEMO_V1: u32 = 1;"));
        assert!(out.contains("pub mod demo_v1 {"));
        assert!(out.contains("pub const ALLOC: u32 = 1;"));
        assert!(out.contains("pub struct DemoV1Client<"));
        assert!(out.contains("pub fn alloc(&mut self, arg0: &u64) -> oncrpc::RpcResult<u64>"));
        assert!(out.contains("pub fn nullproc(&mut self) -> oncrpc::RpcResult<()>"));
        assert!(out.contains("pub trait DemoV1Service: Send + Sync {"));
        assert!(out.contains("fn alloc(&self, arg0: u64) -> Result<u64, oncrpc::AcceptStat>;"));
        assert!(out.contains("pub struct DemoV1Dispatch<S>(pub S);"));
        assert!(out.contains("impl<S: DemoV1Service> oncrpc::Dispatch for DemoV1Dispatch<S>"));
    }

    #[test]
    fn bulk_args_are_borrowed_and_deferred() {
        let out = gen(r#"typedef opaque mem_data<>;
            program P {
                version V {
                    int WRITE(unsigned hyper, mem_data) = 1;
                    int NAME(unsigned hyper, string) = 2;
                } = 1;
            } = 9;"#);
        // Client: bulk payloads borrowed and sent via the scatter-gather path.
        assert!(out.contains(
            "pub fn write(&mut self, arg0: &u64, arg1: &[u8]) -> oncrpc::RpcResult<i32>"
        ));
        assert!(out.contains("call_raw_sg_tagged(v::WRITE, false"));
        assert!(out.contains("enc.put_opaque_deferred(arg1);"));
        // String args are borrowed too, but need no iovec segment.
        assert!(out
            .contains("pub fn name(&mut self, arg0: &u64, arg1: &str) -> oncrpc::RpcResult<i32>"));
        assert!(out.contains("call_raw_tagged(v::NAME, false"));
        assert!(out.contains("enc.put_string(arg1);"));
        // Server: services see wire bytes without an ownership copy.
        assert!(out.contains(
            "fn write(&self, arg0: u64, arg1: &[u8]) -> Result<i32, oncrpc::AcceptStat>;"
        ));
        assert!(out
            .contains("fn name(&self, arg0: u64, arg1: &str) -> Result<i32, oncrpc::AcceptStat>;"));
        assert!(out.contains("args.get_opaque_ref()"));
        assert!(out.contains("args.get_str_ref()"));
    }

    #[test]
    fn idempotent_procedures_are_tagged() {
        let out = gen(r#"program P {
                version V {
                    void NULLPROC(void) = 0;
                    int PING(int) = 1;
                    idempotent int PEEK(unsigned hyper) = 2;
                } = 1;
            } = 9;"#);
        // The proc-number module exposes the idempotency table.
        assert!(out.contains("pub fn is_idempotent(proc: u32) -> bool {"));
        assert!(out.contains("matches!(proc, PEEK)"));
        // Stubs pass the tag through to the retry-aware call path.
        assert!(out.contains("call_raw_tagged(v::PEEK, true"));
        assert!(out.contains("call_raw_tagged(v::PING, false"));
        assert!(out.contains("call_raw_tagged(v::NULLPROC, false"));
    }

    #[test]
    fn untagged_interfaces_report_nothing_idempotent() {
        let out = gen("program P { version V { void N(void) = 0; } = 1; } = 9;");
        assert!(out.contains("pub fn is_idempotent(proc: u32) -> bool {"));
        assert!(out.contains("        false"));
        assert!(!out.contains("matches!(proc,"));
    }

    #[test]
    fn batchable_procedures_get_record_stubs() {
        let out = gen(r#"typedef opaque mem_data<>;
            program P {
                version V {
                    batchable int FIRE(unsigned hyper, mem_data) = 1;
                    idempotent batchable int POKE(unsigned hyper) = 2;
                    int PLAIN(int) = 3;
                } = 1;
            } = 9;"#);
        // The proc-number module exposes the batchability table.
        assert!(out.contains("pub fn is_batchable(proc: u32) -> bool {"));
        assert!(out.contains("matches!(proc, FIRE | POKE)"));
        // Batchable procs keep their immediate stub *and* gain a record
        // stub; the record stub copies bulk args into the builder and
        // carries the per-op idempotency tag.
        assert!(out.contains("pub fn fire(&mut self, arg0: &u64, arg1: &[u8])"));
        assert!(out.contains(
            "pub fn fire_record(batch: &mut oncrpc::BatchBuilder, arg0: &u64, arg1: &[u8])"
        ));
        assert!(out.contains("batch.record(v::FIRE, false, |enc| {"));
        assert!(out.contains("batch.record(v::POKE, true, |enc| {"));
        assert!(out.contains("enc.put_opaque(arg1);"));
        assert!(!out.contains("plain_record"));
    }

    #[test]
    fn batchable_procedures_get_a_batch_op_decoder() {
        let out = gen(r#"typedef opaque mem_data<>;
            struct geom { unsigned int x; };
            program P {
                version V {
                    batchable int FIRE(unsigned hyper, geom, mem_data) = 1;
                    batchable int NAME(string) = 2;
                    int PLAIN(int) = 3;
                } = 1;
                version W { int PLAIN(int) = 1; } = 2;
                version X { batchable int POKE(unsigned hyper) = 1; } = 3;
            } = 9;"#);
        // One tuple variant per batchable proc, arguments as the service
        // trait takes them, bulk data and strings borrowed.
        assert!(out.contains("pub enum VBatchOp<'a> {"));
        assert!(out.contains("    Fire(u64, Geom, &'a [u8]),"));
        assert!(out.contains("    Name(&'a str),"));
        assert!(!out.contains("    Plain("));
        assert!(out.contains(
            "pub fn decode(proc: u32, dec: &mut xdr::XdrDecoder<'a>) -> xdr::XdrResult<Option<Self>> {"
        ));
        // The decode expressions are the dispatch arms' own.
        assert!(out.contains(
            "v::FIRE => Self::Fire(dec.get::<u64>()?, dec.get::<Geom>()?, dec.get_opaque_ref()?),"
        ));
        assert!(out.contains("v::NAME => Self::Name(dec.get_str_ref()?),"));
        assert!(out.contains("            _ => return Ok(None),"));
        for arg in [
            "args.get::<u64>()",
            "args.get::<Geom>()",
            "args.get_opaque_ref()",
        ] {
            assert!(out.contains(&format!(
                "= {arg}.map_err(|_| oncrpc::AcceptStat::GarbageArgs)?;"
            )));
        }
        // A version without batchable procs gets neither enum nor decoder;
        // one whose batchable procs borrow nothing names no lifetime.
        assert!(!out.contains("WBatchOp"));
        assert!(out.contains("pub enum XBatchOp {"));
        assert!(out.contains("impl XBatchOp {"));
        assert!(out.contains("dec: &mut xdr::XdrDecoder<'_>)"));
        // With the client stubs beside it, the op can record or send itself
        // through them: scalars by reference, borrowed fields by copy.
        assert!(out.contains("pub fn record(&self, batch: &mut oncrpc::BatchBuilder) {"));
        assert!(out.contains(
            "Self::Fire(ref a0, ref a1, a2) => VClient::fire_record(batch, a0, a1, a2),"
        ));
        assert!(out.contains("-> oncrpc::RpcResult<i32> {"));
        assert!(out.contains("Self::Name(a0) => client.name(a0),"));
        assert!(out.contains("Self::Poke(ref a0) => client.poke(a0),"));
        let server_only = Options {
            client: false,
            ..Options::default()
        };
        let server_only = generate(
            &parse("program P { version X { batchable int POKE(int) = 1; } = 3; } = 9;").unwrap(),
            &server_only,
        );
        assert!(server_only.contains("pub enum XBatchOp {"));
        assert!(!server_only.contains("pub fn record("));
    }

    #[test]
    fn inline_and_admin_procedures_are_tagged_in_any_attribute_order() {
        let out = gen(r#"program P {
                version V {
                    inline void NULLPROC(void) = 0;
                    idempotent inline int PEEK(int) = 1;
                    inline admin idempotent int POLL(int) = 2;
                    batchable inline idempotent int ODD(int) = 3;
                    admin idempotent int WAIT(int) = 4;
                } = 1;
                version W { int PLAIN(int) = 1; } = 2;
            } = 9;"#);
        assert!(out.contains("pub fn is_inline(proc: u32) -> bool {"));
        assert!(out.contains("matches!(proc, NULLPROC | PEEK | POLL | ODD)"));
        assert!(out.contains("matches!(proc, PEEK | POLL | ODD | WAIT)"));
        assert!(out.contains("matches!(proc, ODD)"));
        assert!(out.contains("pub fn is_admin(proc: u32) -> bool {"));
        assert!(out.contains("matches!(proc, POLL | WAIT)"));
        // An untagged version still gets the (empty) tables.
        let w = out.split("pub mod w {").nth(1).unwrap();
        for attr in ["inline", "admin"] {
            assert!(w.contains(&format!(
                "pub fn is_{attr}(proc: u32) -> bool {{\n        let _ = proc;\n        false"
            )));
        }
        // Each attribute at most once per procedure.
        for attr in ["idempotent", "batchable", "inline", "admin"] {
            let twice =
                format!("program P {{ version V {{ {attr} {attr} int N(int) = 0; }} = 1; }} = 9;");
            assert!(parse(&twice).is_err(), "{attr} accepted twice");
        }
    }

    /// `cost(ns)` yields `host_cost_ns`, 0 for a procedure without one; a
    /// version where no procedure declares a cost gets no table.
    #[test]
    fn costs_become_a_host_cost_table() {
        let out = gen(r#"program P {
                version V {
                    void NULLPROC(void) = 0;
                    inline cost(1500) int PEEK(int) = 1;
                    cost(25000) idempotent int LOAD(int) = 2;
                } = 1;
                version W { int PLAIN(int) = 1; } = 2;
            } = 9;"#);
        let v = out.split("pub mod v {").nth(1).unwrap();
        assert!(v.contains(
            "pub fn host_cost_ns(proc: u32) -> u64 {\n        match proc {\n            \
             PEEK => 1500,\n            LOAD => 25000,\n            _ => 0,\n"
        ));
        let w = out.split("pub mod w {").nth(1).unwrap();
        assert!(!w.contains("host_cost_ns"));
    }

    /// Each `api` procedure becomes one method of the version's macro, its
    /// body handed to the hook its other attributes choose and its reply
    /// turned into `Result<T, i32>` the way its result type needs.
    #[test]
    fn api_procedures_become_methods_of_one_macro() {
        let out = gen(r#"
            typedef opaque blob<>;
            struct cfg { int a; };
            union u64_result switch (int err) { case 0: unsigned hyper data; default: void; };
            program P { version V {
                api(ping, "ping") admin void NULLPROC(void) = 0;
                api(alloc, "cuAlloc") u64_result ALLOC(unsigned hyper) = 1;
                api(put, "cuPut(H2D)") batchable int PUT(unsigned hyper, blob) = 2;
                api(set, "cuSet") admin int SET(cfg, string) = 3;
                api(get, "cuGet") cfg GET(void) = 4;
                int HIDDEN(int) = 5;
            } = 1; } = 9;"#);
        assert!(out.contains(
            "pub fn into_result(self) -> Result<u64, i32> {\n        \
             match self { Self::Data(v) => Ok(v), Self::Default(err) => Err(err) }"
        ));
        let api = out
            .split("macro_rules! v_api { ($result:ident) => {")
            .nth(1)
            .unwrap();
        for method in [
            r#"pub fn ping(&mut self) -> $result<()> { self.manage("ping", |stub| stub.nullproc().map(Ok)) }"#,
            r#"pub fn alloc(&mut self, arg0: u64) -> $result<u64> { self.call("cuAlloc", |stub| stub.alloc(&arg0).map($crate::U64Result::into_result)) }"#,
            r#"pub fn put(&mut self, arg0: u64, arg1: &[u8]) -> $result<()> { self.issue("cuPut(H2D)", true, $crate::VBatchOp::Put(arg0, arg1)) }"#,
            r#"pub fn set(&mut self, arg0: &$crate::Cfg, arg1: &str) -> $result<()> { self.manage("cuSet", |stub| stub.set(arg0, arg1).map($crate::v::status)) }"#,
            r#"pub fn get(&mut self) -> $result<$crate::Cfg> { self.call("cuGet", |stub| stub.get().map(Ok)) }"#,
        ] {
            assert!(api.contains(method), "{method}");
        }
        assert!(!api.contains("hidden"));
        assert!(out
            .split("pub mod v {")
            .nth(1)
            .unwrap()
            .contains("pub fn status(code: i32)"));
    }

    /// A spec that declares no `api` (portmap.x) gets neither the macro nor
    /// the status conversion, so its generated code is what it was.
    #[test]
    fn a_spec_without_api_emits_no_macro() {
        let out = gen(r#"
            struct mapping { unsigned int prog; unsigned int port; };
            program PMAP_PROG { version PMAP_VERS {
                idempotent void PMAPPROC_NULL(void) = 0;
                bool PMAPPROC_SET(mapping) = 1;
                unsigned int PMAPPROC_GETPORT(mapping) = 3;
            } = 2; } = 100000;"#);
        assert!(!out.contains("macro_rules!"));
        assert!(!out.contains("fn status("));
        assert!(!out.contains("into_result"));
    }

    /// A tagged struct leads with its magic, then its version word, on the
    /// way out, and checks both on the way in; its Rust type has no field
    /// for either.
    #[test]
    fn tagged_structs_write_and_check_their_leading_words() {
        let out = gen(
            "const VERSION_blob = 3; const MAGIC_blob = 0x424c4f42; struct blob { int a; };
             const VERSION_bare = 1; struct bare { int a; };",
        );
        let blob = out.split("pub struct Blob {").nth(1).unwrap();
        let blob = blob.split("pub struct Bare {").next().unwrap();
        assert!(blob.starts_with("\n    pub a: i32,\n}"));
        let encode = "enc.put_u32(0x424c4f42);\n        enc.put_u32(0x3);\n        \
                      xdr::Xdr::encode(&self.a, enc);";
        assert!(blob.contains(encode), "{blob}");
        let check = |value: &str, word: &str, ty: &str| {
            format!(
                "match dec.get_u32()? {{ {value} => {{}} found => return Err(\
                 xdr::XdrError::WrongTag {{ type_name: \"{ty}\", word: \"{word}\", found }}) }}"
            )
        };
        let magic = blob.find(&check("0x424c4f42", "magic", "blob")).unwrap();
        let version = blob.find(&check("0x3", "version", "blob")).unwrap();
        assert!(magic < version && version < blob.find("Ok(Self {").unwrap());
        let bare = out.split("pub struct Bare {").nth(1).unwrap();
        assert!(bare.contains("enc.put_u32(0x1);"));
        assert!(bare.contains(&check("0x1", "version", "bare")));
        assert!(!bare.contains("\"magic\""));
    }

    #[test]
    fn batchable_requires_int_result() {
        let err =
            parse("program P { version V { batchable void N(void) = 0; } = 1; } = 9;").unwrap_err();
        assert!(err.to_string().contains("must return plain `int`"));
    }

    #[test]
    fn options_control_emission() {
        let src = "program P { version V { void N(void) = 0; } = 1; } = 9;";
        let spec = parse(src).unwrap();
        let client_only = generate(
            &spec,
            &Options {
                server: false,
                ..Options::default()
            },
        );
        assert!(client_only.contains("VClient"));
        assert!(!client_only.contains("VService"));
        let server_only = generate(
            &spec,
            &Options {
                client: false,
                ..Options::default()
            },
        );
        assert!(!server_only.contains("VClient"));
        assert!(server_only.contains("VService"));
    }

    #[test]
    fn one_generic_client_serves_every_buffer_policy() {
        let src = r#"typedef opaque mem_data<>;
            struct geom { unsigned int x; unsigned int y; };
            union d_result switch (int err) { case 0: mem_data data; default: void; };
            union h_result switch (int err) { case 0: unsigned hyper data; default: void; };
            program P {
                version V {
                    void NULLPROC(void) = 0;
                    batchable int WRITE(unsigned hyper, mem_data) = 1;
                    idempotent d_result READ(unsigned hyper, unsigned hyper) = 2;
                    h_result ALLOC(unsigned hyper) = 3;
                    int LAUNCH(geom, unsigned hyper) = 4;
                } = 1;
            } = 9;"#;
        let out = gen(src);
        // One stub type, generic over transport and buffer policy, defaulted
        // so `VClient` alone still means the boxed, pooled client.
        assert!(out.contains("pub struct VClient<T = Box<dyn oncrpc::Transport>, B = Vec<u8>> {"));
        assert!(out.contains("pub rpc: oncrpc::RpcClient<T, B>,"));
        assert!(out.contains("impl<T: oncrpc::Transport, B: oncrpc::RecordBuf> VClient<T, B> {"));
        assert!(out.contains("pub fn bind(transport: T) -> Self {"));
        // Each procedure is emitted once — no second client, no second
        // encode method on the data types.
        assert_eq!(out.matches("pub fn launch(").count(), 1);
        assert!(!out.contains("NoAllocClient"));
        assert!(!out.contains("impl Geom {"));
        assert!(out.contains("fn encode<S: xdr::XdrSink>(&self, enc: &mut xdr::XdrEncoder<S>) {"));
        // Bulk-opaque result unions also read their payload into the
        // caller's buffer; other unions only come back owned.
        assert!(out.contains(
            "pub fn read(&mut self, arg0: &u64, arg1: &u64) -> oncrpc::RpcResult<DResult> {"
        ));
        assert!(out.contains(
            "pub fn read_into(&mut self, arg0: &u64, arg1: &u64, dst: &mut [u8]) -> oncrpc::RpcResult<i32> {"
        ));
        assert!(out.contains("let reply = self.rpc.call_raw_into(v::READ, true, |enc| {"));
        assert!(out.contains("}, (0, &mut *dst))?;"));
        assert!(out.contains("if err == 0 && reply.landed() {"));
        assert!(out.contains("dst.copy_from_slice(data);"));
        assert!(!out.contains("fn alloc_into("));
        assert!(!out.contains("pub fn read_ref("));
        // What needs no type parameter sits on the defaulted type, where
        // `VClient::new` / `VClient::write_record` infer.
        let defaulted = out.split("impl VClient {").nth(1).unwrap();
        assert!(defaulted.contains("pub fn new(transport: Box<dyn oncrpc::Transport>) -> Self"));
        assert!(defaulted.contains("pub fn write_record(batch: &mut oncrpc::BatchBuilder,"));
    }

    /// A bulk-opaque result union is not returned by the service method but
    /// written through a by-value sink; nothing else changes shape.
    #[test]
    fn bulk_results_are_written_through_a_reply_sink() {
        let src = r#"typedef opaque mem_data<>;
            union d_result switch (int err) { case 3: mem_data data; default: void; };
            union h_result switch (int err) { case 0: unsigned hyper data; default: void; };
            program P {
                version V {
                    idempotent d_result READ(unsigned hyper, unsigned hyper) = 2;
                    d_result SNAP(void) = 3;
                    h_result ALLOC(unsigned hyper) = 4;
                } = 1;
            } = 9;"#;
        let out = gen(src);
        // The sink: public over the reply encoder, consumed by either arm,
        // each writing what `DResult::encode` writes; the token's field is
        // private, so only the two calls make one.
        assert!(out.contains("pub struct DResultReply<'a>(pub &'a mut xdr::XdrEncoder);"));
        assert!(out.contains("pub struct DResultReplied(());"));
        assert!(out.contains(
            "pub fn data(self, v0: &[u8]) -> DResultReplied { self.0.put_i32(3i32); self.0.put_opaque(v0); DResultReplied(()) }"
        ));
        assert!(out.contains(
            "pub fn default(self, d: i32) -> DResultReplied { self.0.put_i32(d); DResultReplied(()) }"
        ));
        // Trait methods receive it last and return the token, not the union.
        assert!(out.contains(
            "fn read(&self, arg0: u64, arg1: u64, reply: DResultReply<'_>) -> Result<DResultReplied, oncrpc::AcceptStat>;"
        ));
        assert!(out.contains(
            "fn snap(&self, reply: DResultReply<'_>) -> Result<DResultReplied, oncrpc::AcceptStat>;"
        ));
        assert!(!out.contains("-> Result<DResult, oncrpc::AcceptStat>"));
        // The dispatch arm lends its reply encoder and encodes nothing itself.
        assert!(
            out.contains("let _: DResultReplied = self.0.read(arg0, arg1, DResultReply(reply))?;")
        );
        assert!(out.contains("let _: DResultReplied = self.0.snap(DResultReply(reply))?;"));
        // Other unions keep the owned return and get no sink.
        assert!(out.contains("fn alloc(&self, arg0: u64) -> Result<HResult, oncrpc::AcceptStat>;"));
        assert!(!out.contains("HResultReply"));
        // The sink is server-side: a client-only emission has none.
        let client_only = generate(
            &parse(src).unwrap(),
            &Options {
                server: false,
                ..Options::default()
            },
        );
        assert!(!client_only.contains("DResultReply"));
        assert!(client_only.contains("pub fn read_into("));
    }

    #[test]
    fn custom_crate_paths() {
        let out = generate(
            &parse("struct s { int a; };").unwrap(),
            &Options {
                xdr_path: "::my_xdr".into(),
                ..Options::default()
            },
        );
        assert!(out.contains("impl ::my_xdr::Xdr for S"));
    }
}
